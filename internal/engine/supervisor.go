package engine

import (
	"bytes"
	"fmt"
	"time"

	"github.com/xatu-go/xatu/internal/cdet"
	"github.com/xatu-go/xatu/internal/ddos"
)

// Shard supervision: the self-healing layer of the engine.
//
// Every message a shard processes runs under a supervisor (supervise)
// that recovers panics instead of letting the shard goroutine die. The
// poison message is quarantined — counted, never retried — and the
// shard's Monitor is rebuilt from its last background snapshot plus a
// bounded in-memory WAL of the telemetry processed since that snapshot
// (wal.go: a step is logged as the vector the monitor consumed). Restart
// loss is therefore bounded: at most the poison message plus whatever the
// WAL evicted since the last snapshot, both accounted in ShardStats.Lost.
//
// A watchdog goroutine drives stall detection and a three-state health
// machine, Healthy → Degraded → CDetOnly, that sheds work in order:
// Degraded drops decision traces (alert quality untouched), CDetOnly
// drops model inference entirely and falls back to a pass-through CDet
// confirmation so alerts keep flowing at commercial-detector quality.
// Escalation is immediate after a short confirmation window; recovery is
// hysteretic (RecoverTicks consecutive clean ticks per level) so the
// state cannot flap at a threshold boundary.

// HealthState is the engine's degradation level.
type HealthState int32

// Health states, in escalation order. The numeric values are exported on
// the xatu_engine_health_state gauge.
const (
	// Healthy: full service — model inference with decision traces.
	Healthy HealthState = iota
	// Degraded: traces are shed; inference and alert quality untouched.
	Degraded
	// CDetOnly: model inference is shed; a pass-through CDet fallback
	// confirms volumetric anomalies so alerts keep flowing.
	CDetOnly
)

// String returns the state slug used in health reports and metrics.
func (h HealthState) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case CDetOnly:
		return "cdet-only"
	default:
		return "unknown"
	}
}

// HealthTransition records one health-state change.
type HealthTransition struct {
	From  HealthState `json:"from"`
	To    HealthState `json:"to"`
	Cause string      `json:"cause,omitempty"`
	At    time.Time   `json:"at"`
}

const (
	// degradedQueueFrac / cdetOnlyQueueFrac are the mailbox-fullness
	// escalation thresholds. They only apply under ShedOldest: with Block
	// a full mailbox is intended backpressure, not data loss.
	degradedQueueFrac = 0.75
	cdetOnlyQueueFrac = 0.95
	// pressureTicks is how many consecutive watchdog ticks must confirm
	// pressure before escalating one level — a debounce, not hysteresis.
	pressureTicks = 2
	// maxHealthTransitions bounds the retained transition history.
	maxHealthTransitions = 64
)

// shardSnapshot is one background Monitor snapshot: a complete version-1
// checkpoint blob, immutable once published.
type shardSnapshot struct {
	data []byte
	at   time.Time
}

// supervise runs one message, or a run of step messages, under panic
// protection. On panic the message is quarantined and the shard restarts
// from its last snapshot + WAL; with Config.DisableSupervision the shard
// dies instead (surfaced via Stats/Health and barrier errors, never a
// hung Drain). A run that panics is handled again one message at a time
// (rerun), so the poison message alone is quarantined.
func (e *Engine) supervise(s *shard, run []message, st HealthState) (alive bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if len(run) > 1 {
			alive = e.rerun(s, run, st, r)
			return
		}
		msg := run[0]
		s.quarantined.Add(1)
		if msg.op != opExec {
			s.lost.Add(1) // the poison message's telemetry is gone for good
		}
		s.setLastPanic(r)
		// Panic = incident: freeze the flight ring with the event that
		// triggered it included, so the dump shows what led up to it.
		e.cfg.Flight.Record("panic", "shard %d panicked on %s: %v", s.id, opName(msg.op), r)
		e.cfg.Flight.Dump("panic")
		if msg.done != nil {
			msg.done <- fmt.Errorf("xatu: shard %d panicked: %v", s.id, r)
		}
		if e.cfg.DisableSupervision {
			alive = false
			return
		}
		alive = e.recoverShard(s)
	}()
	if !e.handle(s, run, st) {
		return false
	}
	e.postHandle(s, run, st)
	s.handled.Add(uint64(len(run)))
	return true
}

// rerun recovers from a panic inside a run of step messages whose first
// s.runDone were fully handled (and logged): it rebuilds the monitor from
// the last snapshot and the WAL — the state before the rest of the run —
// and handles the rest one message at a time under supervise. Only the
// poison message is quarantined, and no other message is applied twice.
// While the WAL holds everything since the snapshot the rebuild is exact
// and counts nothing, so the counters read as if the run had come one
// message at a time; otherwise it is a counted restart (recoverShard), or
// with supervision disabled the death of the shard.
func (e *Engine) rerun(s *shard, run []message, st HealthState, r any) bool {
	done := s.runDone
	s.handled.Add(uint64(done))
	e.cfg.Flight.Record("panic", "shard %d: a run of %d steps panicked (%v); handling the last %d one at a time",
		s.id, len(run), r, len(run)-done)
	var mon *Monitor
	if len(s.wal) > 0 && s.walEvicted == 0 {
		mon, _, _ = e.rebuildMonitor(s) // nil if the rebuild itself failed
	}
	switch {
	case mon != nil:
		s.mon = mon
	case e.cfg.DisableSupervision:
		s.quarantined.Add(1)
		s.lost.Add(uint64(len(run) - done))
		s.setLastPanic(r)
		e.cfg.Flight.Dump("panic")
		return false
	case !e.recoverShard(s):
		return false
	}
	for i := done; i < len(run); i++ {
		if !e.supervise(s, run[i:i+1], st) {
			return false
		}
	}
	return true
}

// postHandle logs a successfully processed missing step or mitigation end
// to the WAL (so it can be replayed after a later panic; handleSteps logs
// each step as it finishes) and takes a background snapshot when the
// checkpoint interval has elapsed. Messages bypassed in CDetOnly never
// touched the monitor and are not logged — the WAL mirrors monitor state
// exactly.
func (e *Engine) postHandle(s *shard, run []message, st HealthState) {
	switch msg := &run[0]; msg.op {
	case opStep: // logged by handleSteps
	case opMissing:
		if st != CDetOnly {
			s.walAppend(msg, nil, 0)
		}
	case opEnd:
		s.walAppend(msg, nil, 0)
	default:
		return // a control op re-bases the snapshot itself when it replaces state
	}
	if iv := e.cfg.CheckpointInterval; iv > 0 && time.Since(s.lastSnap) >= iv {
		e.snapshotShard(s)
	}
}

// snapshotShard serializes the shard's monitor and publishes it as the
// new recovery basis, re-basing the WAL, and returns the blob. On error
// the previous snapshot stays and the WAL keeps extending the old basis.
// Runs on the shard goroutine.
func (e *Engine) snapshotShard(s *shard) ([]byte, error) {
	var buf bytes.Buffer
	if err := s.mon.Checkpoint(&buf); err != nil {
		return nil, err
	}
	s.publishSnapshot(buf.Bytes())
	return buf.Bytes(), nil
}

// replace installs mon as the shard's monitor (restore and rewrite) and
// re-bases recovery on it at once: the old snapshot and WAL describe the
// replaced state, and a crash right after must recover mon.
func (e *Engine) replace(s *shard, mon *Monitor) {
	s.mon = mon
	s.channels.Store(int64(mon.Channels()))
	s.walReset()
	s.snap.Store(nil)
	e.snapshotShard(s)
}

// publishSnapshot installs data (a complete version-1 Monitor blob the
// caller will not mutate) as the shard's recovery basis and clears the
// WAL: everything in the snapshot no longer needs replaying.
func (s *shard) publishSnapshot(data []byte) {
	s.snap.Store(&shardSnapshot{data: data, at: time.Now()})
	s.lastSnap = time.Now()
	s.walReset()
	s.snapshots.Add(1)
}

// recoverShard rebuilds the shard's monitor after a panic: last snapshot
// restored, then the WAL replayed in arrival order (per-customer order is
// preserved — the ring is the shard's processing order). Alerts raised by
// replayed steps were delivered before the crash: they are not delivered
// again, and the replay runs with history writes off, because the
// extractor's history registry already holds them (RecordHistory). If
// the rebuild itself fails the shard cold-restarts with a fresh monitor
// rather than dying; only an invalid MonitorConfig (impossible after New
// succeeded) is terminal.
func (e *Engine) recoverShard(s *shard) bool {
	start := time.Now()
	mon, replayed, ok := e.rebuildMonitor(s)
	lost := s.walEvicted
	if !ok {
		fresh, err := NewMonitor(e.cfg.Monitor)
		if err != nil {
			e.cfg.Flight.Record("restart", "shard %d dead: monitor rebuild failed", s.id)
			return false
		}
		mon, replayed = fresh, 0
		lost += uint64(s.walN) // the un-replayed log is lost with the state
	}
	s.mon = mon
	s.walReplayed.Add(uint64(replayed))
	s.lost.Add(lost)
	s.restarts.Add(1)
	s.channels.Store(int64(s.mon.Channels()))
	e.snapshotShard(s) // new basis: a second panic must not double-replay
	el := time.Since(start)
	s.recoveryNanos.Add(uint64(el))
	if e.mx != nil {
		e.mx.recoveryLatency.Observe(el)
	}
	e.cfg.Flight.Record("restart", "shard %d recovered in %v: replayed %d, lost %d", s.id, el, replayed, lost)
	return true
}

// rebuildMonitor reconstructs snapshot+WAL state, guarding against the
// recovery path itself panicking (e.g. a torn snapshot).
func (e *Engine) rebuildMonitor(s *shard) (mon *Monitor, replayed int, ok bool) {
	defer func() {
		if recover() != nil {
			mon, replayed, ok = nil, 0, false
		}
	}()
	mon, err := NewMonitor(e.cfg.Monitor)
	if err != nil {
		return nil, 0, false
	}
	if snap := s.snap.Load(); snap != nil && len(snap.data) > 0 {
		if err := mon.Restore(bytes.NewReader(snap.data)); err != nil {
			return nil, 0, false
		}
	}
	// Replayed alerts and attackers are already in the history registry:
	// recording them again would count each alert twice in A4.
	mon.cfg.RecordHistory = false
	replayed = s.walReplay(mon)
	mon.cfg.RecordHistory = e.cfg.Monitor.RecordHistory
	return mon, replayed, true
}

// InjectFault enqueues a poison message that panics inside the target
// shard's processing loop — deterministic chaos for supervision tests and
// the soak harness. The supervisor treats it like any organic panic.
func (e *Engine) InjectFault(id int) error {
	if id < 0 || id >= len(e.shards) {
		return fmt.Errorf("xatu: no shard %d", id)
	}
	return e.send(e.shards[id], message{op: opExec, exec: func(s *shard) error {
		panic(fmt.Sprintf("engine: injected fault on shard %d", s.id))
	}})
}

func (s *shard) setLastPanic(r any) {
	s.panicMu.Lock()
	s.lastPanic = fmt.Sprintf("%v", r)
	s.panicMu.Unlock()
}

func (s *shard) panicDetail() string {
	s.panicMu.Lock()
	defer s.panicMu.Unlock()
	if s.lastPanic == "" {
		return "no panic recorded"
	}
	return s.lastPanic
}

// --- CDetOnly fallback ---

// fallbackDetector lazily builds the shard's pass-through CDet detector.
// It is fed every step even while Healthy (a cheap signature-match pass)
// so its EWMA baselines are warm the moment the engine degrades.
func (s *shard) fallbackDetector(e *Engine) *cdet.Detector {
	if s.fb == nil {
		s.fb = cdet.New(*e.cfg.Fallback, e.cfg.Step)
	}
	return s.fb
}

// fallbackStep feeds one step of flows to the CDet fallback. With emit
// set (CDetOnly mode) its alerts are fanned into the alert channel with a
// nil Trace; otherwise the detector only learns. Reports false when the
// engine closed mid-delivery.
func (e *Engine) fallbackStep(s *shard, msg message, emit bool) bool {
	fb := s.fallbackDetector(e)
	var sigs [ddos.NumAttackTypes]ddos.Signature
	for at := ddos.AttackType(0); at < ddos.NumAttackTypes; at++ {
		sigs[at] = ddos.SignatureFor(at, msg.customer)
	}
	var perType [ddos.NumAttackTypes]float64
	for i := range msg.flows {
		r := &msg.flows[i]
		b := float64(r.Bytes)
		for at := range sigs {
			if sigs[at].MatchesRecord(r) {
				perType[at] += b
			}
		}
	}
	alerts := fb.Observe(msg.customer, msg.at, perType)
	if !emit {
		return true
	}
	for _, a := range alerts {
		s.fbAlerts.Add(1)
		if e.mx != nil {
			e.mx.fallbackAlerts.Inc()
		}
		select {
		case e.alerts <- AlertEvent{Customer: msg.customer, At: msg.at, Shard: s.id, Alert: a}:
		case <-e.done:
			return false
		}
	}
	return true
}

// fallbackMissing feeds a zero-traffic step so the fallback's sustain and
// release counters advance through telemetry gaps.
func (e *Engine) fallbackMissing(s *shard, msg message) {
	var zero [ddos.NumAttackTypes]float64
	s.fallbackDetector(e).Observe(msg.customer, msg.at, zero)
}

// --- watchdog and health state machine ---

// healthSignals is one watchdog tick's view of the fleet.
type healthSignals struct {
	worstQueueFrac float64
	stalledShards  int
	deadShards     int
	shedding       bool // ShedOldest policy: queue pressure implies data loss
}

// decideHealth maps one tick's signals to the state the engine should be
// in, most severe condition first.
func decideHealth(sig healthSignals) (HealthState, string) {
	if sig.shedding && sig.worstQueueFrac >= cdetOnlyQueueFrac {
		return CDetOnly, fmt.Sprintf("mailbox %.0f%% full, telemetry being shed", sig.worstQueueFrac*100)
	}
	if sig.deadShards > 0 {
		return Degraded, fmt.Sprintf("%d shard(s) dead", sig.deadShards)
	}
	if sig.stalledShards > 0 {
		return Degraded, fmt.Sprintf("%d shard(s) stalled", sig.stalledShards)
	}
	if sig.shedding && sig.worstQueueFrac >= degradedQueueFrac {
		return Degraded, fmt.Sprintf("mailbox %.0f%% full", sig.worstQueueFrac*100)
	}
	return Healthy, ""
}

// healthLadder carries the debounce/hysteresis counters between ticks.
type healthLadder struct {
	hot  int // consecutive ticks demanding escalation
	calm int // consecutive ticks allowing de-escalation
}

// stepHealth moves the state one rung at a time: up after pressureTicks
// confirming ticks, down after RecoverTicks clean ticks per level. A
// forced state (ForceHealth) freezes the ladder entirely.
func (e *Engine) stepHealth(desired HealthState, cause string, lad *healthLadder) {
	if e.forced.Load() >= 0 {
		lad.hot, lad.calm = 0, 0
		return
	}
	cur := HealthState(e.health.Load())
	switch {
	case desired > cur:
		lad.calm = 0
		lad.hot++
		if lad.hot >= pressureTicks {
			e.setHealth(cur+1, cause)
			lad.hot = 0
		}
	case desired < cur:
		lad.hot = 0
		lad.calm++
		if lad.calm >= e.cfg.RecoverTicks {
			e.setHealth(cur-1, "recovered: pressure cleared")
			lad.calm = 0
		}
	default:
		lad.hot, lad.calm = 0, 0
	}
}

// setHealth installs a new state and records the transition. Every
// transition is a flight-recorder incident: the event is logged and the
// ring dumped, so the run-up to a health change survives ring wrap.
func (e *Engine) setHealth(st HealthState, cause string) {
	old := HealthState(e.health.Swap(int32(st)))
	e.transMu.Lock()
	e.healthCause = cause
	if old != st {
		if len(e.trans) >= maxHealthTransitions {
			e.trans = append(e.trans[:0], e.trans[1:]...)
		}
		e.trans = append(e.trans, HealthTransition{From: old, To: st, Cause: cause, At: time.Now()})
	}
	e.transMu.Unlock()
	if old != st {
		e.cfg.Flight.Record("health", "%s -> %s: %s", old, st, cause)
		e.cfg.Flight.Dump("health:" + st.String())
	}
}

// healthNow is the hot-path state read (one atomic load).
func (e *Engine) healthNow() HealthState { return HealthState(e.health.Load()) }

// HealthState returns the engine's current degradation level.
func (e *Engine) HealthState() HealthState { return e.healthNow() }

// HealthCause returns the reason for the current state ("" while Healthy).
func (e *Engine) HealthCause() string {
	e.transMu.Lock()
	defer e.transMu.Unlock()
	return e.healthCause
}

// Transitions returns the retained health-transition history, oldest
// first (bounded to the most recent 64).
func (e *Engine) Transitions() []HealthTransition {
	e.transMu.Lock()
	defer e.transMu.Unlock()
	out := make([]HealthTransition, len(e.trans))
	copy(out, e.trans)
	return out
}

// ForceHealth pins the health state — operator drills and the soak
// harness's forced-degradation phase. The watchdog keeps observing but
// cannot move the state until AutoHealth.
func (e *Engine) ForceHealth(st HealthState, cause string) {
	if st < Healthy || st > CDetOnly {
		return
	}
	e.forced.Store(int32(st))
	e.setHealth(st, cause)
}

// AutoHealth returns state control to the watchdog; the current state is
// kept and recovers through the normal hysteresis.
func (e *Engine) AutoHealth() { e.forced.Store(-1) }

// watchdog ticks stall detection and the health state machine until the
// engine closes.
func (e *Engine) watchdog(tick time.Duration) {
	defer e.wg.Done()
	t := time.NewTicker(tick)
	defer t.Stop()
	n := len(e.shards)
	w := &watchdogState{
		lastHandled:  make([]uint64, n),
		lastProgress: make([]time.Time, n),
	}
	now := time.Now()
	for i := range w.lastProgress {
		w.lastProgress[i] = now
	}
	for {
		select {
		case <-e.done:
			return
		case <-t.C:
			sig := e.collectSignals(w)
			desired, cause := decideHealth(sig)
			e.stepHealth(desired, cause, &w.ladder)
		}
	}
}

// watchdogState is the watchdog goroutine's private bookkeeping.
type watchdogState struct {
	lastHandled  []uint64
	lastProgress []time.Time
	lastShed     uint64
	ladder       healthLadder
}

// collectSignals snapshots the fleet for one tick: stall detection per
// shard (queued work but no completed message for StallAfter), worst
// mailbox fullness, and the telemetry shed since the last tick.
func (e *Engine) collectSignals(w *watchdogState) healthSignals {
	now := time.Now()
	sig := healthSignals{shedding: e.cfg.Policy == ShedOldest}
	var shed uint64
	for i, s := range e.shards {
		if s.dead.Load() {
			sig.deadShards++
			continue
		}
		h := s.handled.Load()
		if h != w.lastHandled[i] || len(s.mail) == 0 {
			w.lastHandled[i] = h
			w.lastProgress[i] = now
			s.stalled.Store(false)
		} else if now.Sub(w.lastProgress[i]) >= e.cfg.StallAfter {
			s.stalled.Store(true)
			sig.stalledShards++
		}
		if c := cap(s.mail); c > 0 {
			if f := float64(len(s.mail)) / float64(c); f > sig.worstQueueFrac {
				sig.worstQueueFrac = f
			}
		}
		shed += s.shed.Load()
	}
	if d := shed - w.lastShed; d > 0 {
		// A shed burst is a flight event, not a health transition: the
		// ladder reacts to queue pressure separately; the recorder keeps
		// the evidence of *when* load was dropped.
		e.cfg.Flight.Record("shed", "%d telemetry messages shed this tick", d)
	}
	w.lastShed = shed
	return sig
}
