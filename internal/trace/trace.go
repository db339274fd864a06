// Package trace is Xatu's dependency-free distributed tracing and
// flight-recorder layer. It threads through the whole serving path —
// router/exporter, UDP frame, ingest mesh, engine shards, cluster
// forwarding, coordinator alert fan-in — without coordination between
// nodes: sampling is a deterministic hash of the customer address, so
// every node independently agrees on which customers are traced.
//
// The design point is cost when disabled: a nil *Recorder (tracing off)
// makes every hook a single nil check with zero allocations, so the
// unsampled hot path keeps its 0 allocs/op pin. When enabled, only the
// sampled customers' events pay for ring writes and histogram updates;
// everything else pays one hash (often served from the caller's cache).
package trace

import (
	"encoding/binary"
	"encoding/json"
	"net/netip"
	"sync"
	"time"
)

// Stage enumerates the serving-path stages a sampled flow passes
// through, in pipeline order. Stage latencies are measured against the
// previous stage's wall clock where the chain is known (export → decode
// → seal) and against the stage's own work otherwise (step = inference
// duration, forward = queue hand-off).
type Stage uint8

const (
	// StageExport: the router/exporter flushed the record's datagram
	// (wall clock carried in the frame trailer).
	StageExport Stage = iota
	// StageDecode: a decode worker parsed the datagram.
	StageDecode
	// StageSeal: an aggregation worker sealed the (customer, step)
	// bucket and handed it to the sink.
	StageSeal
	// StageForward: the cluster layer forwarded the step to the owning
	// node per the routing table.
	StageForward
	// StageBuffer: the step was buffered in a migration inbound window.
	StageBuffer
	// StageStep: an engine shard ran the detection step (latency is the
	// in-shard inference duration; a shard steps a run of one tick's
	// customers as one batch, and each step records its share of it).
	StageStep
	// StageFanin: the coordinator accepted the resulting alert into the
	// fleet-wide deduped set.
	StageFanin

	numStages
)

// String returns the stage slug used in JSON and assembled timelines.
func (s Stage) String() string {
	switch s {
	case StageExport:
		return "export"
	case StageDecode:
		return "decode"
	case StageSeal:
		return "seal"
	case StageForward:
		return "forward"
	case StageBuffer:
		return "buffer"
	case StageStep:
		return "step"
	case StageFanin:
		return "fanin"
	default:
		return "unknown"
	}
}

// Sampler decides which customers are traced: a stable mix of the
// address's 16-byte form modulo the rate. Hashing the 16-byte form
// means an IPv4 customer and its v4-mapped IPv6 form sample
// identically, and because the decision is a pure function of
// (address, rate), every node in a fleet — router, ingest, engine,
// coordinator — picks the same customers with no coordination.
type Sampler struct {
	rate uint64
}

// NewSampler returns a 1-in-rate sampler. rate <= 0 returns nil
// (sampling disabled — a nil Sampler samples nothing); rate 1 samples
// every customer.
func NewSampler(rate int) *Sampler {
	if rate <= 0 {
		return nil
	}
	return &Sampler{rate: uint64(rate)}
}

// Rate returns the sampling rate (0 on a nil sampler).
func (s *Sampler) Rate() int {
	if s == nil {
		return 0
	}
	return int(s.rate)
}

// Sampled reports whether the customer is traced. Nil-safe (false) and
// allocation-free.
func (s *Sampler) Sampled(c netip.Addr) bool {
	if s == nil {
		return false
	}
	return addrHash(c)%s.rate == 0
}

// addrHash mixes the address's 16-byte form as two words through a
// splitmix64-style finalizer. This sits on per-record paths (exporter
// flush, decode-worker trailer probe), so it is a handful of multiplies
// rather than a byte loop — but it is also the fleet-wide sampling
// convention: every process must compute exactly this function, so any
// change here is a wire-protocol change for running mixed fleets.
func addrHash(c netip.Addr) uint64 {
	b := c.As16()
	h := binary.LittleEndian.Uint64(b[0:8])*0x9e3779b97f4a7c15 ^ binary.LittleEndian.Uint64(b[8:16])
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// SpanEvent is one recorded stage crossing for a sampled customer.
// (Customer, At) is the distributed join key: the coordinator groups
// events from every node by it to assemble one cross-node timeline per
// detection step.
type SpanEvent struct {
	// Customer is the protected address the event belongs to.
	Customer netip.Addr
	// At is the step time the event is keyed under; zero while the step
	// is not yet known (origin events re-keyed at seal time).
	At time.Time
	// Stage is the pipeline stage crossed.
	Stage Stage
	// Node is the recording node's identity (filled by the Recorder).
	Node string
	// Wall is the real-time instant the stage was crossed.
	Wall time.Time
	// Latency is the stage's measured duration (0 = not measured).
	Latency time.Duration
	// Detail is optional free-form context ("to node-2", "shard 3").
	Detail string
}

// wireSpan is the JSON shape served on /debug/trace and consumed by the
// coordinator's timeline assembly.
type wireSpan struct {
	Customer  string    `json:"customer"`
	At        time.Time `json:"at"`
	Stage     string    `json:"stage"`
	Node      string    `json:"node,omitempty"`
	Wall      time.Time `json:"wall"`
	LatencyUS int64     `json:"latency_us,omitempty"`
	Detail    string    `json:"detail,omitempty"`
}

func (e SpanEvent) wire() wireSpan {
	return wireSpan{
		Customer:  e.Customer.String(),
		At:        e.At,
		Stage:     e.Stage.String(),
		Node:      e.Node,
		Wall:      e.Wall,
		LatencyUS: e.Latency.Microseconds(),
		Detail:    e.Detail,
	}
}

// StageStat is one stage's latency breakdown: a log2-bucketed histogram
// (microsecond scale) with the worst observation kept as an exemplar,
// so a dashboard can jump from "p99 regressed" straight to a concrete
// (customer, step) to pull the full timeline for.
type StageStat struct {
	Stage    string    `json:"stage"`
	Count    uint64    `json:"count"`
	SumUS    int64     `json:"sum_us"`
	MaxUS    int64     `json:"max_us"`
	Buckets  []uint64  `json:"buckets"` // bucket i counts latencies < 2^i microseconds
	Exemplar *wireSpan `json:"exemplar,omitempty"`
}

// stageBuckets is the histogram resolution: 2^0 .. 2^29 µs (~9 minutes)
// covers queue waits through migration pauses.
const stageBuckets = 30

type stageHist struct {
	count    uint64
	sumUS    int64
	maxUS    int64
	buckets  [stageBuckets]uint64
	exemplar SpanEvent // the worst-latency event observed
}

func (h *stageHist) observe(e SpanEvent) {
	h.count++
	us := e.Latency.Microseconds()
	if us < 0 {
		us = 0
	}
	h.sumUS += us
	if us >= h.maxUS {
		h.maxUS = us
		h.exemplar = e
	}
	b := 0
	for v := us; v > 0 && b < stageBuckets-1; v >>= 1 {
		b++
	}
	h.buckets[b]++
}

// origin is the pre-seal provenance of one customer's latest traced
// datagram: export wall clock (from the frame trailer) and decode wall
// clock. It is held until the aggregation worker seals a step for the
// customer, at which point the chain is re-keyed to the step time.
type origin struct {
	export time.Time
	decode time.Time
}

// Recorder collects span events for one node: a fixed ring of recent
// events (served on /debug/trace), per-stage latency histograms with
// exemplars, and the origin table linking wire trailers to sealed
// steps. All methods are safe for concurrent use and on a nil receiver
// (no-ops), so call sites need no enabled/disabled branches beyond the
// single nil check.
type Recorder struct {
	node    string
	sampler *Sampler

	mu      sync.Mutex
	ring    []SpanEvent
	next    int
	full    bool
	hists   [numStages]stageHist
	origins map[netip.Addr]origin
}

// NewRecorder builds a recorder for the named node. A nil sampler
// (tracing disabled) returns a nil recorder, making every downstream
// hook a single nil check. ringCap < 1 defaults to 512.
func NewRecorder(node string, sampler *Sampler, ringCap int) *Recorder {
	if sampler == nil {
		return nil
	}
	if ringCap < 1 {
		ringCap = 512
	}
	return &Recorder{
		node:    node,
		sampler: sampler,
		ring:    make([]SpanEvent, ringCap),
		origins: make(map[netip.Addr]origin),
	}
}

// Sampled reports whether the customer is traced (false on nil).
func (r *Recorder) Sampled(c netip.Addr) bool {
	if r == nil {
		return false
	}
	return r.sampler.Sampled(c)
}

// Rate returns the sampling rate (0 on nil).
func (r *Recorder) Rate() int {
	if r == nil {
		return 0
	}
	return r.sampler.Rate()
}

// Node returns the recording node's identity ("" on nil).
func (r *Recorder) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// RecordOrigin notes the latest traced datagram for a sampled customer:
// export is the exporter's wall clock from the frame trailer, decode
// the local receive time. The pair is attached to the customer's next
// sealed step by RecordSeal (latest datagram wins — the step's flows
// arrived across several datagrams and the freshest bound is the
// tightest).
func (r *Recorder) RecordOrigin(c netip.Addr, export, decode time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.origins[c] = origin{export: export, decode: decode}
	r.mu.Unlock()
}

// RecordSeal records the seal of one (customer, step) bucket at wall
// time now, emitting the customer's buffered export/decode origin as
// properly keyed events first so the whole pre-engine chain shares the
// step's join key.
func (r *Recorder) RecordSeal(c netip.Addr, at, now time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if o, ok := r.origins[c]; ok {
		delete(r.origins, c)
		r.recordLocked(SpanEvent{Customer: c, At: at, Stage: StageExport, Wall: o.export})
		r.recordLocked(SpanEvent{Customer: c, At: at, Stage: StageDecode, Wall: o.decode,
			Latency: o.decode.Sub(o.export)})
		r.recordLocked(SpanEvent{Customer: c, At: at, Stage: StageSeal, Wall: now,
			Latency: now.Sub(o.decode)})
	} else {
		r.recordLocked(SpanEvent{Customer: c, At: at, Stage: StageSeal, Wall: now})
	}
	r.mu.Unlock()
}

// Record adds one stage event for a sampled customer at the current
// wall clock. The caller is expected to have checked Sampled already
// (Record does not re-check, so synthetic events can be injected in
// tests).
func (r *Recorder) Record(c netip.Addr, at time.Time, stage Stage, latency time.Duration, detail string) {
	if r == nil {
		return
	}
	e := SpanEvent{Customer: c, At: at, Stage: stage, Wall: time.Now(), Latency: latency, Detail: detail}
	r.mu.Lock()
	r.recordLocked(e)
	r.mu.Unlock()
}

func (r *Recorder) recordLocked(e SpanEvent) {
	e.Node = r.node
	if e.Stage < numStages {
		r.hists[e.Stage].observe(e)
	}
	r.ring[r.next] = e
	r.next = (r.next + 1) % len(r.ring)
	if r.next == 0 {
		r.full = true
	}
}

// Snapshot returns the retained events, oldest first.
func (r *Recorder) Snapshot() []SpanEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SpanEvent
	if r.full {
		out = append(out, r.ring[r.next:]...)
	}
	out = append(out, r.ring[:r.next]...)
	return out
}

// StageStats returns the per-stage latency breakdown with exemplars,
// skipping stages that never observed an event.
func (r *Recorder) StageStats() []StageStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []StageStat
	for st := Stage(0); st < numStages; st++ {
		h := &r.hists[st]
		if h.count == 0 {
			continue
		}
		ex := h.exemplar.wire()
		out = append(out, StageStat{
			Stage:    st.String(),
			Count:    h.count,
			SumUS:    h.sumUS,
			MaxUS:    h.maxUS,
			Buckets:  append([]uint64(nil), h.buckets[:]...),
			Exemplar: &ex,
		})
	}
	return out
}

// traceDoc is the /debug/trace JSON document.
type traceDoc struct {
	Node   string      `json:"node"`
	Rate   int         `json:"rate"`
	Spans  []wireSpan  `json:"spans"`
	Stages []StageStat `json:"stages"`
}

// JSON renders the recorder for /debug/trace: node identity, sampling
// rate, the retained spans oldest first, and the per-stage breakdown.
// A nil recorder renders an empty document, so the endpoint can be
// registered unconditionally.
func (r *Recorder) JSON() []byte {
	doc := traceDoc{Spans: []wireSpan{}, Stages: []StageStat{}}
	if r != nil {
		doc.Node = r.node
		doc.Rate = r.Rate()
		for _, e := range r.Snapshot() {
			doc.Spans = append(doc.Spans, e.wire())
		}
		if st := r.StageStats(); st != nil {
			doc.Stages = st
		}
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return []byte("{}")
	}
	return data
}
