package ingest

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/attackhist"
	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/netflow"
)

var t0 = time.Date(2019, 7, 3, 12, 0, 0, 0, time.UTC)

// srcPacket is one raw datagram attributed to an exporter source.
type srcPacket struct {
	src string
	pkt []byte
}

// buildStream encodes a deterministic multi-source, multi-customer flow
// trace into NetFlow v5 packets: sources × steps, each source carrying
// flows for every customer each step, packets of ≤30 records with per-
// source sequence numbers. Whole-second timestamps round-trip the v5
// millisecond clock exactly.
func buildStream(t testing.TB, nSources, nCustomers, steps int) ([]srcPacket, []netip.Addr) {
	t.Helper()
	boot := t0.Add(-time.Hour)
	customers := make([]netip.Addr, nCustomers)
	for i := range customers {
		customers[i] = netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
	}
	var out []srcPacket
	seqs := make([]uint32, nSources)
	for s := 0; s < steps; s++ {
		at := t0.Add(time.Duration(s) * time.Minute)
		for src := 0; src < nSources; src++ {
			var recs []netflow.Record
			for ci, c := range customers {
				n := 1 + (s+ci+src)%3
				for j := 0; j < n; j++ {
					recs = append(recs, netflow.Record{
						Src:     netip.AddrFrom4([4]byte{11, byte(src + 1), byte(s%250 + 1), byte(j + 1)}),
						Dst:     c,
						Proto:   netflow.ProtoUDP,
						SrcPort: uint16(1024 + s + j),
						DstPort: 80,
						Packets: uint32(10 + j),
						Bytes:   uint32(6000 + 100*j + 13*ci),
						Start:   at.Add(time.Duration(j) * time.Second),
						End:     at.Add(30 * time.Second),
					})
				}
			}
			name := fmt.Sprintf("192.0.2.%d:2055", src+1)
			for off := 0; off < len(recs); off += netflow.MaxRecordsPerPacket {
				end := off + netflow.MaxRecordsPerPacket
				if end > len(recs) {
					end = len(recs)
				}
				pkt, err := netflow.EncodeV5(recs[off:end], boot, at.Add(time.Minute), seqs[src], 1)
				if err != nil {
					t.Fatal(err)
				}
				seqs[src] += uint32(end - off)
				out = append(out, srcPacket{src: name, pkt: pkt})
			}
		}
	}
	return out, customers
}

func testExtractor() *features.Extractor {
	bl := blocklist.NewRegistry()
	bl.Add(blocklist.Bot, netip.AddrFrom4([4]byte{11, 1, 1, 1}), t0.Add(-24*time.Hour), 0)
	return &features.Extractor{
		Blocklists: bl,
		History:    attackhist.NewRegistry(),
		Geo:        func(netip.Addr) string { return "US" },
		A4Window:   240 * time.Hour,
		A5Window:   24 * time.Hour,
	}
}

// stepSnap is one emitted (customer, step) observation with copied storage.
type stepSnap struct {
	at   time.Time
	feat []float64
}

// runPipeline replays packets through a pipeline with the given worker
// counts and returns each customer's emitted feature-vector sequence.
func runPipeline(t *testing.T, packets []srcPacket, decodeWorkers, aggWorkers int) (map[netip.Addr][]stepSnap, Stats) {
	t.Helper()
	var mu sync.Mutex
	got := map[netip.Addr][]stepSnap{}
	p, err := New(Config{
		DecodeWorkers: decodeWorkers,
		AggWorkers:    aggWorkers,
		Step:          time.Minute,
		Lateness:      time.Hour,
		Extractor:     testExtractor(),
		OnStep: func(customer netip.Addr, at time.Time, feat []float64, flows []netflow.Record) {
			snap := stepSnap{at: at, feat: append([]float64(nil), feat...)}
			mu.Lock()
			got[customer] = append(got[customer], snap)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range packets {
		p.HandlePacket(sp.src, sp.pkt)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	return got, p.Stats()
}

// TestPipelineParityAcrossWorkerCounts is the tentpole parity pin: the
// per-customer feature-vector sequence must be bit-identical whether the
// pipeline runs single-threaded or fanned out. A bucket's record order
// differs between the two; the vectors do not, because extraction is
// exact.
func TestPipelineParityAcrossWorkerCounts(t *testing.T) {
	packets, customers := buildStream(t, 4, 24, 12)
	ref, refStats := runPipeline(t, packets, 1, 1)
	if refStats.Steps == 0 || refStats.Records == 0 {
		t.Fatalf("reference run produced nothing: %+v", refStats)
	}
	if len(ref) != len(customers) {
		t.Fatalf("reference run covered %d customers, want %d", len(ref), len(customers))
	}
	for _, cfg := range [][2]int{{4, 3}, {2, 5}} {
		got, st := runPipeline(t, packets, cfg[0], cfg[1])
		if st.Records != refStats.Records || st.Steps != refStats.Steps {
			t.Fatalf("workers %v: records/steps %d/%d, reference %d/%d",
				cfg, st.Records, st.Steps, refStats.Records, refStats.Steps)
		}
		if st.DroppedLate != 0 {
			t.Fatalf("workers %v: dropped %d records late", cfg, st.DroppedLate)
		}
		for _, c := range customers {
			w, g := ref[c], got[c]
			if len(w) != len(g) {
				t.Fatalf("workers %v: customer %v got %d steps, want %d", cfg, c, len(g), len(w))
			}
			for i := range w {
				if !w[i].at.Equal(g[i].at) {
					t.Fatalf("workers %v: customer %v step %d at %v, want %v", cfg, c, i, g[i].at, w[i].at)
				}
				for j := range w[i].feat {
					if w[i].feat[j] != g[i].feat[j] {
						t.Fatalf("workers %v: customer %v step %d feature %d: %v != %v",
							cfg, c, i, j, g[i].feat[j], w[i].feat[j])
					}
				}
			}
		}
	}
}

// TestPipelineStepOrderPerCustomer pins that each customer's steps emerge
// in ascending step-time order even with maximal fan-out.
func TestPipelineStepOrderPerCustomer(t *testing.T) {
	packets, _ := buildStream(t, 3, 16, 10)
	got, _ := runPipeline(t, packets, 4, 4)
	for c, snaps := range got {
		for i := 1; i < len(snaps); i++ {
			if !snaps[i-1].at.Before(snaps[i].at) {
				t.Fatalf("customer %v: step %d at %v not after %v", c, i, snaps[i].at, snaps[i-1].at)
			}
		}
	}
}

// chaosify applies a deterministic duplicate/reorder schedule to a packet
// stream, preserving per-source decode-worker routing: every 7th packet is
// duplicated, every 5th is swapped with its successor.
func chaosify(packets []srcPacket) []srcPacket {
	out := make([]srcPacket, 0, len(packets)+len(packets)/7+1)
	out = append(out, packets...)
	for i := 0; i+1 < len(out); i++ {
		if i%5 == 0 {
			out[i], out[i+1] = out[i+1], out[i]
		}
	}
	withDups := make([]srcPacket, 0, cap(out))
	for i, sp := range out {
		withDups = append(withDups, sp)
		if i%7 == 0 {
			withDups = append(withDups, sp)
		}
	}
	return withDups
}

type alertKey struct {
	customer netip.Addr
	typ      ddos.AttackType
	at       time.Time
}

func tinyModel(t testing.TB) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig(features.NumFeatures)
	cfg.Hidden = 4
	cfg.PoolShort, cfg.PoolMed, cfg.PoolLong = 1, 2, 4
	cfg.Window = 4
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestPipelineChaosAlertParity is the acceptance pin for the engine path:
// a chaotic packet stream (duplicates and reorders) fed through the
// parallel pipeline into a sharded engine must raise the identical alert
// set as the serial path — sequence tracker, one aggregator, one monitor —
// consuming the same packets one at a time.
func TestPipelineChaosAlertParity(t *testing.T) {
	base, _ := buildStream(t, 4, 16, 24)
	packets := chaosify(base)

	model := tinyModel(t)
	ext := testExtractor()
	mkCfg := func() engine.MonitorConfig {
		return engine.MonitorConfig{
			Default:           model,
			Extractor:         ext,
			Threshold:         1.5,
			Types:             []ddos.AttackType{ddos.UDPFlood},
			MitigationTimeout: 10 * time.Minute,
		}
	}

	// Serial reference: per-packet decode + sequence dedup + one
	// aggregator + one monitor, each bucket in arrival order.
	mon, err := engine.NewMonitor(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := map[alertKey]bool{}
	tracker := netflow.NewSeqTracker()
	agg := netflow.NewAggregator(time.Minute, time.Hour)
	observe := func(sealed []netflow.StepBatch) {
		for _, b := range sealed {
			for dst, recs := range b.ByDst {
				for _, a := range mon.ObserveStep(dst, b.Start, recs) {
					want[alertKey{dst, a.Sig.Type, b.Start}] = true
				}
			}
		}
	}
	for _, sp := range packets {
		h, recs, err := netflow.DecodeV5(sp.pkt)
		if err != nil {
			t.Fatal(err)
		}
		if tracker.Track(sp.src, h, len(recs)) {
			continue
		}
		for _, r := range recs {
			observe(agg.Add(r))
		}
	}
	observe(agg.Flush())
	if len(want) == 0 {
		t.Fatal("serial reference raised no alerts; fixture is broken")
	}

	// Parallel path: same packets, pipeline → 3-shard engine.
	eng, err := engine.New(engine.Config{
		Monitor: mkCfg(), Shards: 3, Policy: engine.Block, AlertBuffer: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		DecodeWorkers: 3,
		AggWorkers:    3,
		Step:          time.Minute,
		Lateness:      time.Hour,
		Sink:          eng,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range packets {
		p.HandlePacket(sp.src, sp.pkt)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	got := map[alertKey]bool{}
	for ev := range eng.Alerts() {
		got[alertKey{ev.Customer, ev.Alert.Sig.Type, ev.At}] = true
	}

	if len(got) != len(want) {
		t.Fatalf("pipeline raised %d alerts, serial path %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("pipeline missing alert %+v", k)
		}
	}
	st := p.Stats()
	if st.DupPackets == 0 {
		t.Fatal("chaos stream contained duplicates but none were counted")
	}
	if st.ReorderedPackets == 0 {
		t.Fatal("chaos stream contained reorders but none were counted")
	}
}

// TestPipelinePoolingBoundsAllocations pins the free-list behavior: pool
// misses (each one an allocation) are bounded by what can be in flight —
// queue capacities — not by traffic volume. A small queue depth keeps the
// in-flight bound tight while the stream is long.
func TestPipelinePoolingBoundsAllocations(t *testing.T) {
	packets, _ := buildStream(t, 4, 24, 60)
	// Short lateness so buckets seal (and their storage recirculates)
	// while the stream is still flowing; the stream's disorder is well
	// under two minutes, so nothing is dropped.
	p, err := New(Config{
		DecodeWorkers: 2, AggWorkers: 2, QueueDepth: 4,
		Step: time.Minute, Lateness: 2 * time.Minute,
		OnStep: func(netip.Addr, time.Time, []float64, []netflow.Record) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range packets {
		p.HandlePacket(sp.src, sp.pkt)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	gets := st.PoolHits + st.PoolMisses
	if gets == 0 {
		t.Fatal("no pool traffic recorded")
	}
	// In-flight ceiling: a packet buffer or chunk per queue slot, per
	// worker in mid-handle, and per pending partition chunk — ~40 with
	// this geometry. Anything near gets (one per packet per stage) means
	// storage is not recirculating.
	if st.PoolMisses > 64 {
		t.Fatalf("pool misses %d of %d gets: pooling is not recirculating", st.PoolMisses, gets)
	}
	if st.AggPoolMisses*10 > st.AggPoolHits+st.AggPoolMisses {
		t.Fatalf("aggregator pool misses %d vs hits %d: sealed storage is not recirculating",
			st.AggPoolMisses, st.AggPoolHits)
	}
}

// TestPipelineDroppedLate pins the Dropped() plumbing end to end: a record
// older than the lateness allowance is counted in Stats, not silently lost.
func TestPipelineDroppedLate(t *testing.T) {
	boot := t0.Add(-time.Hour)
	mk := func(at time.Time, seq uint32) []byte {
		pkt, err := netflow.EncodeV5([]netflow.Record{{
			Src: netip.AddrFrom4([4]byte{11, 1, 1, 1}), Dst: netip.AddrFrom4([4]byte{203, 0, 113, 1}),
			Proto: netflow.ProtoUDP, Packets: 1, Bytes: 100,
			Start: at, End: at.Add(time.Second),
		}}, boot, at.Add(time.Minute), seq, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	p, err := New(Config{
		DecodeWorkers: 1, AggWorkers: 1, Step: time.Minute, Lateness: 0,
		OnStep: func(netip.Addr, time.Time, []float64, []netflow.Record) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.HandlePacket("192.0.2.1:2055", mk(t0.Add(10*time.Minute), 0))
	p.HandlePacket("192.0.2.1:2055", mk(t0, 1)) // ten minutes late, zero allowance
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.DroppedLate != 1 {
		t.Fatalf("DroppedLate = %d, want 1 (stats: %+v)", st.DroppedLate, st)
	}
}

// TestPipelineBadPackets pins that undecodable datagrams are counted and
// do not wedge the workers.
func TestPipelineBadPackets(t *testing.T) {
	p, err := New(Config{
		DecodeWorkers: 1, AggWorkers: 1,
		OnStep: func(netip.Addr, time.Time, []float64, []netflow.Record) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.HandlePacket("192.0.2.1:2055", []byte{0, 9, 0, 1})
	p.HandlePacket("192.0.2.1:2055", nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.BadPackets != 2 || st.Packets != 0 {
		t.Fatalf("stats = %+v, want 2 bad packets", st)
	}
}

func TestPipelineConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no sink must be rejected")
	}
	sink := func(netip.Addr, time.Time, []float64, []netflow.Record) {}
	eng, err := engine.New(engine.Config{Monitor: engine.MonitorConfig{
		Default: tinyModel(t), Extractor: testExtractor(), Threshold: 1.5,
	}, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := New(Config{OnStep: sink, Sink: eng}); err == nil {
		t.Fatal("two sinks must be rejected")
	}
	if _, err := New(Config{Sink: eng, Extractor: testExtractor()}); err == nil {
		t.Fatal("an engine Sink with Extractor must be rejected")
	}
}

// TestPipelineCloseIdempotent pins that double Close and post-Close
// HandlePacket are safe no-ops.
func TestPipelineCloseIdempotent(t *testing.T) {
	packets, _ := buildStream(t, 1, 2, 2)
	p, err := New(Config{
		DecodeWorkers: 1, AggWorkers: 1, Step: time.Minute,
		OnStep: func(netip.Addr, time.Time, []float64, []netflow.Record) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p.HandlePacket(packets[0].src, packets[0].pkt)
	if st := p.Stats(); st.Packets != 0 {
		t.Fatalf("post-Close packet was processed: %+v", st)
	}
}
