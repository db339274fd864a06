// Package engine is Xatu's serving layer: the single-threaded Monitor —
// the deployable detection unit of §2.6 — and the sharded concurrent
// Engine that scales it across customers. A deployment the size of the
// paper's (1000+ protected customers behind one ISP) cannot run on one
// goroutine; the Engine partitions customers across N shards by a stable
// hash of their address, each shard owning one Monitor behind a bounded
// mailbox, and coordinates lifecycle (drain, checkpoint, restore) across
// the fleet.
package engine

import (
	"errors"
	"math"
	"net/netip"
	"time"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/netflow"
)

// MonitorConfig configures an online Monitor, the deployable unit of §2.6:
// it consumes one step of flow records per protected customer, maintains
// per-(customer, attack-type) detector streams, and emits alerts when the
// survival probability crosses the calibrated threshold.
type MonitorConfig struct {
	// Models maps attack types to their trained models. Types not present
	// fall back to Default.
	Models map[ddos.AttackType]*core.Model
	// Default is the fallback model (required if Models is incomplete).
	Default *core.Model
	// Extractor computes the 273 features per step.
	Extractor *features.Extractor
	// Threshold is the survival threshold: alert when S < Threshold.
	Threshold float64
	// Types are the attack types to watch; nil = all six.
	Types []ddos.AttackType
	// MitigationTimeout releases a diversion with no EndMitigation call
	// after this duration (CScrub gives up). Zero = 30 minutes.
	MitigationTimeout time.Duration
	// RecordHistory, when set, feeds the monitor's own alerts back into the
	// extractor's history registry (the autoregressive mode of §5.3).
	RecordHistory bool
	// MissingPolicy selects what detector streams consume for steps with no
	// telemetry (see ObserveMissing): zero-fill (default) or carry-forward.
	MissingPolicy core.MissingPolicy
	// Precision is inert: a Monitor always serves through the float32
	// lanes, and nothing in this package reads the field. It stays declared
	// because the frozen benchmark (bench/) sets it in two places, and goes
	// when a benchmark PR drops those two lines.
	Precision core.Precision
	// OverheadBound, when set, records the calibration overhead budget the
	// Threshold was tuned at (the scrubbing-overhead bound C/A of §2.4) in
	// every alert's decision trace, so operators can see what guarantee the
	// firing threshold encodes. Informational only.
	OverheadBound float64
}

// traceTrajectory is how many recent survival values each channel retains
// for decision traces.
const traceTrajectory = 16

// Trace is the structured explanation attached to every alert: the
// evidence an operator needs to act on a detection built from weak
// auxiliary signals (§5). It records the survival trajectory that crossed
// the threshold, the per-signal-group share of the feature mass at the
// firing step, the calibration the threshold encodes, and how much of the
// step's traffic matched the diverted signature. Traces marshal to JSON
// for AlertEvent consumers and the /debug/alerts ring.
type Trace struct {
	// Customer is the protected address the alert fired for.
	Customer netip.Addr `json:"customer"`
	// Type is the attack-type slug ("udp-flood", ...).
	Type string `json:"type"`
	// At is the step time of the firing observation.
	At time.Time `json:"at"`
	// Survival is S_t at the firing step; the alert fired because
	// Survival < Threshold.
	Survival float64 `json:"survival"`
	// Threshold is the calibrated survival threshold.
	Threshold float64 `json:"threshold"`
	// OverheadBound is the scrubbing-overhead budget (C/A, §2.4) the
	// threshold was calibrated at, when the deployment recorded it.
	OverheadBound float64 `json:"overhead_bound,omitempty"`
	// Trajectory is the recent survival history (oldest first, ending at
	// the firing step), showing how S_t descended through the threshold.
	Trajectory []float64 `json:"trajectory"`
	// Contributions is each signal group's share of the absolute
	// normalized feature mass at the firing step (keys "V", "A1".."A5";
	// values sum to 1) — which signals the decision leaned on.
	Contributions map[string]float64 `json:"contributions"`
	// StreamSteps is how many inputs this channel's detector stream had
	// consumed when it fired.
	StreamSteps int `json:"stream_steps"`
	// Window is the model's sliding detection window length.
	Window int `json:"window"`
	// MatchedFlows of TotalFlows records in the step matched the diverted
	// signature.
	MatchedFlows int `json:"matched_flows"`
	TotalFlows   int `json:"total_flows"`
}

// Monitor is a streaming multi-customer DDoS detection booster.
//
// A Monitor is strictly single-threaded: no method may be called
// concurrently with any other, and there is no internal locking — each
// ObserveStep mutates per-customer LSTM state, pooling buffers and the
// mitigation ledger in place. To serve many customers with many cores,
// do not add locks here; wrap Monitors in an Engine, which partitions
// customers across single-threaded shards and preserves this contract.
type Monitor struct {
	cfg   MonitorConfig
	types []ddos.AttackType
	// custs holds each customer's channels, indexed by attack type: one
	// map lookup per customer-step. nchans counts the channels that exist.
	custs  map[netip.Addr]*custChans
	nchans int
	// groups are the per-model batching lanes of a step: every channel
	// whose attack type resolves to the same *core.Model is advanced
	// through that model's BatchRunner32 in one kernel pass (with the
	// default single shared model, every channel of every customer in a
	// batch steps as one Push). laneOf[t] is attack type t's lane, nil
	// until the type is first needed. The slices inside are reused across
	// steps, so the hot path allocates only when a new model first appears.
	groups []*modelGroup
	laneOf [ddos.NumAttackTypes]*modelGroup
	// The reused state of observeBatch: the batch of one behind
	// ObserveStep, the i-th customer's normalized feature vector and
	// channels, and the extraction scratch. Safe without locking: a
	// Monitor is single-threaded.
	one     [1]stepIn
	feats   [][]float64
	recs    []*custChans
	scratch features.Scratch
	// stepRecords and extractTime count the records handed to ObserveStep
	// and the time spent turning them into the normalized feature vector:
	// against the step count and the step time they say whether a slow
	// step was the flood or the model.
	stepRecords uint64
	extractTime time.Duration
}

// modelGroup batches the channels of one shared model for a single
// lane push. The runner is the model's float32 lane: it creates and
// restores the group's streams (state carved from its arena) and is the
// only thing that steps them.
type modelGroup struct {
	runner  *core.BatchRunner32
	chans   []*monChan
	streams []*core.Stream
	xs      [][]float64
	survs   []float64
}

// reset clears the group's per-step membership, keeping capacity.
func (g *modelGroup) reset() {
	g.chans = g.chans[:0]
	g.streams = g.streams[:0]
	g.xs = g.xs[:0]
}

// add enrolls one channel for this step with input feat (nil for a
// missing step).
func (g *modelGroup) add(ch *monChan, feat []float64) {
	g.chans = append(g.chans, ch)
	g.streams = append(g.streams, ch.stream)
	g.xs = append(g.xs, feat)
}

// out returns the reused survival buffer, one entry per enrolled channel.
func (g *modelGroup) out() []float64 {
	if cap(g.survs) < len(g.chans) {
		g.survs = make([]float64, len(g.chans))
	}
	g.survs = g.survs[:len(g.chans)]
	return g.survs
}

// custChans is one customer's channels, indexed by attack type. A channel
// with a nil stream does not exist.
type custChans [ddos.NumAttackTypes]monChan

type monChan struct {
	stream     *core.Stream
	mitigating bool
	since      time.Time
	// surv is the survival value of the current step, written by the
	// batched push and read by the alert loop. Transient per step; never
	// checkpointed.
	surv float64
	// recent is a ring of the last survival values (real and missing
	// steps), feeding alert trace trajectories. Not checkpointed: a
	// restored channel rebuilds its trajectory as it streams.
	recent   [traceTrajectory]float64
	recentN  int // values stored, ≤ traceTrajectory
	recentAt int // next write position
}

// noteSurvival records one survival output in the trajectory ring.
func (ch *monChan) noteSurvival(s float64) {
	ch.recent[ch.recentAt] = s
	ch.recentAt = (ch.recentAt + 1) % traceTrajectory
	if ch.recentN < traceTrajectory {
		ch.recentN++
	}
}

// trajectory returns the retained survival values, oldest first.
func (ch *monChan) trajectory() []float64 {
	out := make([]float64, 0, ch.recentN)
	start := ch.recentAt - ch.recentN
	for i := 0; i < ch.recentN; i++ {
		out = append(out, ch.recent[(start+i+traceTrajectory)%traceTrajectory])
	}
	return out
}

// NewMonitor validates the configuration and returns a Monitor.
func NewMonitor(cfg MonitorConfig) (*Monitor, error) {
	if cfg.Extractor == nil {
		return nil, errors.New("xatu: MonitorConfig.Extractor is required")
	}
	// A NaN threshold would pass a `<= 0` test and then alert on every
	// matching step (s >= NaN is false). Values above 1 stay legal: they
	// mean "alert whenever the signature matches".
	if !(cfg.Threshold > 0) || math.IsInf(cfg.Threshold, 1) {
		return nil, errors.New("xatu: MonitorConfig.Threshold must be positive and finite")
	}
	types := cfg.Types
	if types == nil {
		for at := ddos.AttackType(0); at < 6; at++ {
			types = append(types, at)
		}
	}
	if cfg.MitigationTimeout <= 0 {
		cfg.MitigationTimeout = 30 * time.Minute
	}
	m := &Monitor{cfg: cfg, types: types, custs: make(map[netip.Addr]*custChans)}
	// Build every watched type's batching lane up front. This quantizes
	// the weights now, so a corrupt or diverged weight file fails
	// NewMonitor with a diagnosis instead of serving garbage.
	for _, at := range types {
		if _, err := m.laneFor(at); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// laneFor returns attack type at's batching lane, creating it on first
// sight: types whose models are one *core.Model share one lane.
func (m *Monitor) laneFor(at ddos.AttackType) (*modelGroup, error) {
	if g := m.laneOf[at]; g != nil {
		return g, nil
	}
	mm := m.cfg.Models[at]
	if mm == nil {
		mm = m.cfg.Default
	}
	if mm == nil {
		return nil, errors.New("xatu: no model for type " + at.String() + " and no Default")
	}
	for _, g := range m.groups {
		if g.runner.Model() == mm {
			m.laneOf[at] = g
			return g, nil
		}
	}
	r, err := core.NewBatchRunner32(mm)
	if err != nil {
		return nil, err
	}
	g := &modelGroup{runner: r}
	m.groups = append(m.groups, g)
	m.laneOf[at] = g
	return g, nil
}

// stepIn is one customer's step in a batch (observeBatch): ObserveStep's
// arguments; the normalized feature vector x the lanes were pushed, the
// signature tally extraction counted, and the match bit of every attack
// type whose signature check ran in the alert loop (x and hits are what
// the WAL logs); and the alerts and decision traces the step raised. A
// replayed step comes with x and hits and no flows: extraction and
// signature matching are skipped.
type stepIn struct {
	customer netip.Addr
	at       time.Time
	flows    []netflow.Record
	x        []float64
	sigs     ddos.Tally
	hits     uint8
	replay   bool
	alerts   []ddos.Alert
	traces   []*Trace
}

// ObserveStep consumes one step of flows destined to customer and returns
// any alerts raised at this step. Flows must already be aggregated to the
// deployment's step resolution (e.g. one minute).
func (m *Monitor) ObserveStep(customer netip.Addr, at time.Time, flows []netflow.Record) []ddos.Alert {
	alerts, _ := m.observeOne(customer, at, flows, false)
	return alerts
}

// ObserveStepTraced is ObserveStep plus one decision Trace per alert,
// aligned by index. Traces are built only on the (rare) alert path; the
// no-alert hot path does no extra work beyond the trajectory ring.
func (m *Monitor) ObserveStepTraced(customer netip.Addr, at time.Time, flows []netflow.Record) ([]ddos.Alert, []*Trace) {
	return m.observeOne(customer, at, flows, true)
}

// observeOne is ObserveStep as a batch of one.
func (m *Monitor) observeOne(customer netip.Addr, at time.Time, flows []netflow.Record, traced bool) ([]ddos.Alert, []*Trace) {
	m.one[0] = stepIn{customer: customer, at: at, flows: flows}
	m.observeBatch(m.one[:], traced)
	st := m.one[0]
	m.one[0] = stepIn{} // hold no reference to the caller's flows
	return st.alerts, st.traces
}

// replayStep re-applies a step the WAL logged: x is the normalized vector
// the live monitor pushed and hits its signature-check match bits.
func (m *Monitor) replayStep(customer netip.Addr, at time.Time, x []float64, hits uint8) {
	m.one[0] = stepIn{customer: customer, at: at, x: x, hits: hits, replay: true}
	m.observeBatch(m.one[:], false)
	m.one[0] = stepIn{}
}

// observeBatch is ObserveStep for a batch of distinct customers, in
// order, filling each stepIn's alerts (and, when traced, its traces). It
// runs in three passes: extract and normalize every customer's features
// into its own buffer (a replayed step brings its vector), enrolling its
// channels in their lanes; one lane Push per model over every enrolled
// channel; then each customer's alert loop, in batch order. The lanes are batch-size-invariant, so every
// survival value and stream state is bit-identical to stepping the
// customers one at a time. What a batch can change is a history read:
// with RecordHistory on, a customer's extraction runs before the alerts
// of the customers ahead of it in the batch are recorded (DESIGN.md).
func (m *Monitor) observeBatch(steps []stepIn, traced bool) {
	for len(m.feats) < len(steps) {
		m.feats = append(m.feats, nil)
	}
	start := time.Now()
	for i := range steps {
		st := &steps[i]
		st.alerts, st.traces = nil, nil
		if st.replay {
			continue
		}
		m.feats[i] = m.cfg.Extractor.ExtractInto(m.feats[i], &m.scratch, st.customer, st.at, st.flows)
		features.Normalize(m.feats[i])
		st.x, st.sigs, st.hits = m.feats[i], m.scratch.Sigs, 0
		m.stepRecords += uint64(len(st.flows))
	}
	m.extractTime += time.Since(start)
	m.recs = m.recs[:0]
	for i := range steps {
		rec := m.custs[steps[i].customer]
		if rec == nil {
			rec = new(custChans)
			m.custs[steps[i].customer] = rec
		}
		m.recs = append(m.recs, rec)
		for _, atype := range m.types {
			g, ch := m.laneOf[atype], &rec[atype]
			if ch.stream == nil {
				ch.stream = g.runner.NewStream()
				m.nchans++
			}
			g.add(ch, steps[i].x)
		}
	}
	m.pushLanes(false)
	for i := range steps {
		m.alertLoop(&steps[i], m.recs[i], traced)
	}
}

// pushLanes advances every enrolled channel through its lane, one Push
// (PushMissing when missing) per lane, and notes each survival value.
func (m *Monitor) pushLanes(missing bool) {
	for _, g := range m.groups {
		if len(g.chans) == 0 {
			continue
		}
		var out []float64
		if missing {
			out = g.runner.PushMissing(g.streams, m.cfg.MissingPolicy, g.out())
		} else {
			out = g.runner.Push(g.streams, g.xs, g.out())
		}
		for i, v := range out {
			ch := g.chans[i]
			ch.surv = v
			ch.noteSurvival(v)
		}
		g.reset()
	}
}

// alertLoop is the per-type decision of one customer's step, reading the
// survival values the batch produced.
func (m *Monitor) alertLoop(st *stepIn, rec *custChans, traced bool) {
	var contrib map[string]float64 // shared by every alert this step
	for _, atype := range m.types {
		ch := &rec[atype]
		s := ch.surv
		if ch.mitigating {
			if st.at.Sub(ch.since) >= m.cfg.MitigationTimeout {
				ch.mitigating = false // CScrub gave up waiting
			} else {
				continue
			}
		}
		if !ch.stream.Warm() || s >= m.cfg.Threshold {
			continue
		}
		// Only raise a type's alert when traffic matching its signature is
		// actually present this step — the alert's purpose is to divert that
		// signature to scrubbing (§2.1), which is pointless on zero match.
		sig := ddos.SignatureFor(atype, st.customer)
		bit := uint8(1) << atype
		matched := st.sigs.Records[atype]
		if st.replay {
			if st.hits&bit == 0 {
				continue
			}
		} else {
			if matched == 0 {
				continue
			}
			st.hits |= bit
		}
		ch.mitigating = true
		ch.since = st.at
		alert := ddos.Alert{
			Sig:        sig,
			DetectedAt: st.at,
			Source:     "xatu",
		}
		st.alerts = append(st.alerts, alert)
		if traced {
			if contrib == nil {
				contrib = signalContributions(st.x)
			}
			st.traces = append(st.traces, &Trace{
				Customer:      st.customer,
				Type:          atype.String(),
				At:            st.at,
				Survival:      s,
				Threshold:     m.cfg.Threshold,
				OverheadBound: m.cfg.OverheadBound,
				Trajectory:    ch.trajectory(),
				Contributions: contrib,
				StreamSteps:   ch.stream.Steps(),
				Window:        ch.stream.Model().Cfg.Window,
				MatchedFlows:  matched,
				TotalFlows:    len(st.flows),
			})
		}
		if m.cfg.RecordHistory && m.cfg.Extractor.History != nil {
			m.cfg.Extractor.History.RecordAlert(alert)
			for i := range st.flows {
				if sig.MatchesRecord(&st.flows[i]) {
					m.cfg.Extractor.History.RecordAttacker(st.customer, st.flows[i].Src, st.at)
				}
			}
		}
	}
}

// signalContributions aggregates the absolute normalized feature mass per
// signal group (V, A1..A5) and normalizes the shares to sum to 1 — a
// cheap per-alert attribution of which signals the firing step leaned on
// (the full gradient attribution of §6.2 lives in core.InputGradients
// and needs the whole input window, which streams do not retain).
func signalContributions(feat []float64) map[string]float64 {
	per := make(map[string]float64, 6)
	total := 0.0
	for i, v := range feat {
		a := math.Abs(v)
		per[features.GroupOf(i)] += a
		total += a
	}
	if total > 0 {
		for k := range per {
			per[k] /= total
		}
	}
	return per
}

// ObserveMissing advances every existing detector stream for the customer
// by one step with no telemetry, applying the configured MissingPolicy.
// Call it when an aggregation step elapses with no flow records for a
// customer that is being watched — the branches keep stepping in lockstep
// instead of silently freezing, and mitigation timeouts keep counting
// down. No alerts are raised: with no flows there is no signature match to
// divert (§2.1). The customer's channels step as one batch per model lane,
// as in ObserveStep, so channels sharing an input record go on sharing it.
func (m *Monitor) ObserveMissing(customer netip.Addr, at time.Time) {
	rec := m.custs[customer]
	if rec == nil {
		return
	}
	for _, atype := range m.types {
		if ch := &rec[atype]; ch.stream != nil {
			m.laneOf[atype].add(ch, nil)
		}
	}
	m.pushLanes(true)
	for _, atype := range m.types {
		if ch := &rec[atype]; ch.mitigating && at.Sub(ch.since) >= m.cfg.MitigationTimeout {
			ch.mitigating = false // CScrub gave up waiting
		}
	}
}

// channel returns the customer's channel of attack type at, or nil if it
// does not exist.
func (m *Monitor) channel(customer netip.Addr, at ddos.AttackType) *monChan {
	rec := m.custs[customer]
	if rec == nil || at < 0 || at >= ddos.NumAttackTypes || rec[at].stream == nil {
		return nil
	}
	return &rec[at]
}

// EndMitigation signals that CScrub finished mitigating the given customer
// and attack type; detection for that channel resumes from a clean state.
func (m *Monitor) EndMitigation(customer netip.Addr, at ddos.AttackType) {
	if ch := m.channel(customer, at); ch != nil {
		ch.mitigating = false
		ch.stream.Reset()
	}
}

// Mitigating reports whether a diversion is currently active for the
// customer and attack type.
func (m *Monitor) Mitigating(customer netip.Addr, at ddos.AttackType) bool {
	ch := m.channel(customer, at)
	return ch != nil && ch.mitigating
}

// LaneStats sums the counters of the monitor's model lanes: stream-steps
// advanced, distinct inputs projected, and their non-zero features.
func (m *Monitor) LaneStats() core.LaneStats {
	var t core.LaneStats
	for _, g := range m.groups {
		st := g.runner.Stats()
		t.Rows += st.Rows
		t.Projections += st.Projections
		t.NonzeroColumns += st.NonzeroColumns
	}
	return t
}

// ExtractStats returns the records ObserveStep has been handed and the
// time it has spent in feature extraction and normalization.
func (m *Monitor) ExtractStats() (records uint64, extract time.Duration) {
	return m.stepRecords, m.extractTime
}

// Channels returns the number of live (customer, attack-type) detector
// channels.
func (m *Monitor) Channels() int { return m.nchans }

// StreamSteps returns how many inputs the detector stream for the given
// customer and attack type has consumed, or 0 if no such channel exists.
func (m *Monitor) StreamSteps(customer netip.Addr, at ddos.AttackType) int {
	ch := m.channel(customer, at)
	if ch == nil {
		return 0
	}
	return ch.stream.Steps()
}
