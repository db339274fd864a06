package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"net/netip"
	"sort"
	"time"

	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/netflow"
)

// replayer is the serial reference: the whole job — decode, sequence
// tracking, aggregation, canonical sort, Monitor.ObserveStep — on the
// calling goroutine, through the same public functions the pipeline's
// workers call. It says what the concurrent system owes: how many steps
// have sealed after each datagram, the detector state of the customers it
// watches, and their alerts. Customers are independent streams, so
// replaying a subset through the Monitor is exact for that subset.
type replayer struct {
	tracker *netflow.SeqTracker
	agg     *netflow.Aggregator
	mon     *engine.Monitor
	keepAgg func(netip.Addr) bool // nil = aggregate every record
	keepMon func(netip.Addr) bool // nil = observe every sealed step
	recs    []netflow.Record

	records uint64 // records decoded from non-duplicate datagrams
	sealed  uint64 // (customer, step) buckets sealed so far
	bad     uint64
	alerts  []refAlert
}

type refAlert struct {
	customer netip.Addr
	atype    ddos.AttackType
	at       time.Time
}

func newReplayer(mc engine.MonitorConfig, step, lateness time.Duration, keepAgg, keepMon func(netip.Addr) bool) (*replayer, error) {
	mon, err := engine.NewMonitor(mc)
	if err != nil {
		return nil, err
	}
	return &replayer{
		tracker: netflow.NewSeqTracker(),
		agg:     netflow.NewAggregator(step, lateness),
		mon:     mon,
		keepAgg: keepAgg,
		keepMon: keepMon,
		recs:    make([]netflow.Record, 0, netflow.MaxRecordsPerPacket),
	}, nil
}

// handlePacket is the serial twin of ingest.Pipeline.HandlePacket.
func (r *replayer) handlePacket(src string, pkt []byte) {
	h, recs, err := netflow.DecodeV5Into(pkt, r.recs)
	r.recs = recs
	if err != nil {
		r.bad++
		return
	}
	if r.tracker.Track(src, h, len(recs)) {
		return
	}
	r.records += uint64(len(recs))
	for i := range recs {
		if r.keepAgg != nil && !r.keepAgg(recs[i].Dst) {
			continue
		}
		r.observe(r.agg.Add(recs[i]))
	}
}

// flush seals the open buckets, as Pipeline.Close does.
func (r *replayer) flush() { r.observe(r.agg.Flush()) }

func (r *replayer) observe(sealed []netflow.StepBatch) {
	for _, b := range sealed {
		for dst, recs := range b.ByDst {
			r.sealed++
			if r.keepMon != nil && !r.keepMon(dst) {
				continue
			}
			netflow.SortRecordsCanonical(recs)
			for _, a := range r.mon.ObserveStep(dst, b.Start, recs) {
				r.alerts = append(r.alerts, refAlert{customer: dst, atype: a.Sig.Type, at: b.Start})
			}
		}
		// As the pipeline does when it feeds an engine: the record slices
		// were handed to the consumer, only the shell is recycled.
		r.agg.RecycleShell(b)
	}
}

// Detector-state comparison. Monitor and Engine checkpoints share the
// documented XMC1 framing (internal/engine/monitor_state.go): a version-1
// body is a list of channel records keyed by (customer, attack type), and
// a version-2 file is length-prefixed version-1 bodies, one per shard. The
// stream payloads are never re-encoded, so two detectors that consumed the
// same inputs produce byte-identical channel records — including the
// hazard ring every S_t is computed from.

type chanKey struct {
	customer netip.Addr
	atype    uint8
}

var errCkpt = errors.New("malformed XMC1 checkpoint")

// checkpointChannels splits a Monitor (v1) or Engine (v2) checkpoint into
// its per-channel record bytes.
func checkpointChannels(blob []byte) (map[chanKey][]byte, error) {
	out := map[chanKey][]byte{}
	if len(blob) < 10 || string(blob[:4]) != "XMC1" {
		return nil, errCkpt
	}
	le := binary.LittleEndian
	switch v := le.Uint16(blob[4:]); v {
	case 1:
		return out, scanChannels(blob[4:], out)
	case 2:
		// magic | u16 version | u32 nshards | per shard: u32 len + v1 blob
		nshards := le.Uint32(blob[6:])
		rest := blob[10:]
		for i := uint32(0); i < nshards; i++ {
			if len(rest) < 4 {
				return nil, errCkpt
			}
			n := int(le.Uint32(rest))
			if n < 10 || len(rest) < 4+n {
				return nil, errCkpt
			}
			seg := rest[4 : 4+n]
			if string(seg[:4]) != "XMC1" || le.Uint16(seg[4:]) != 1 {
				return nil, errCkpt
			}
			if err := scanChannels(seg[4:], out); err != nil {
				return nil, err
			}
			rest = rest[4+n:]
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: version %d", errCkpt, v)
	}
}

// scanChannels walks a version-1 body starting at its u16 version field.
func scanChannels(body []byte, out map[chanKey][]byte) error {
	le := binary.LittleEndian
	n := le.Uint32(body[2:])
	p := body[6:]
	for i := uint32(0); i < n; i++ {
		start := p
		if len(p) < 1 || len(p) < 1+int(p[0])+3 {
			return errCkpt
		}
		var addr netip.Addr
		if err := addr.UnmarshalBinary(p[1 : 1+int(p[0])]); err != nil {
			return errCkpt
		}
		p = p[1+int(p[0]):]
		atype, sinceLen := p[0], int(p[2])
		p = p[3:]
		if len(p) < sinceLen+4 {
			return errCkpt
		}
		p = p[sinceLen:]
		streamLen := int(le.Uint32(p))
		if len(p) < 4+streamLen {
			return errCkpt
		}
		stream := p[4 : 4+streamLen]
		p = p[4+streamLen:]
		out[chanKey{addr, atype}] = start[:len(start)-len(p)-lastInputLen(stream)]
	}
	return nil
}

// lastInputLen is the length of the "vec lastX" field that ends an XSC1
// stream payload (present flag, int32 length, float64 values), or 0 if the
// payload does not end in one. The comparison leaves that field out: it is
// the raw float64 feature vector of the final step, and the A5 clustering
// means in it are summed over a Go map in iteration order, so their last
// bit is not reproducible from one call to the next. Everything S_t is
// computed from — h, c, pooling sums, the hazard ring — stays in.
func lastInputLen(stream []byte) int {
	le := binary.LittleEndian
	if len(stream) < 10 || string(stream[:4]) != "XSC1" {
		return 0
	}
	nf := int(le.Uint32(stream[6:]))
	tail := 1 + 4 + 8*nf
	if nf <= 0 || len(stream) < tail {
		return 0
	}
	if f := stream[len(stream)-tail:]; f[0] != 1 || int(le.Uint32(f[1:])) != nf {
		return 0
	}
	return tail
}

// stateMismatches compares two checkpoints channel by channel and returns
// how many channels were compared and how many differ (missing on either
// side counts as differing).
func stateMismatches(got, want []byte) (compared, differing int, err error) {
	g, err := checkpointChannels(got)
	if err != nil {
		return 0, 0, fmt.Errorf("system checkpoint: %w", err)
	}
	w, err := checkpointChannels(want)
	if err != nil {
		return 0, 0, fmt.Errorf("reference checkpoint: %w", err)
	}
	for k, wb := range w {
		compared++
		if !bytes.Equal(g[k], wb) {
			differing++
		}
	}
	for k := range g {
		if _, ok := w[k]; !ok {
			compared++
			differing++
		}
	}
	return compared, differing, nil
}

// stateChecksum is an order-independent digest of a checkpoint's channels,
// printed so two runs of one seed can be compared by eye.
func stateChecksum(blob []byte) uint64 {
	chans, err := checkpointChannels(blob)
	if err != nil {
		return 0
	}
	keys := make([]chanKey, 0, len(chans))
	for k := range chans {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if c := keys[i].customer.Compare(keys[j].customer); c != 0 {
			return c < 0
		}
		return keys[i].atype < keys[j].atype
	})
	h := fnv.New64a()
	for _, k := range keys {
		h.Write(chans[k])
	}
	return h.Sum64()
}
