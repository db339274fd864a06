package main

import (
	"bytes"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/ingest"
	"github.com/xatu-go/xatu/internal/trace"
)

// Closed-loop workloads (wide_quiet, narrow_flood): one generator goroutine
// hands pre-encoded datagrams to ingest.Pipeline.HandlePacket in process,
// closedWindow ticks in flight, every queue blocking (engine.Block,
// pipeline backpressure): the generator runs exactly as fast as the system
// completes work, and the throughput is the system's capacity on this box.

const (
	closedLateness = stepDur
	engineShards   = 2
	// neverFires is a survival threshold S_t cannot go below, so the quiet
	// workloads raise no alerts.
	neverFires = 1e-300
	// closedWindow is how many ticks the generator keeps in flight: it does
	// not start tick g before every verdict tick g−closedWindow made due is
	// out. Without it the in-flight work is whatever the queues hold (up to
	// sixteen ticks of steps in the engine mailboxes alone), and the verdict
	// lag measures which goroutine the scheduler happened to favour.
	closedWindow = 4
	// observerTick is the verdict observer's sampling period.
	observerTick = 250 * time.Microsecond
)

// closedEnv is one started instance of a closed-loop workload: inputs,
// model, engine and pipeline, warmed up and ready for the timed run.
type closedEnv struct {
	st     *stream
	model  *core.Model
	mc     engine.MonitorConfig
	eng    *engine.Engine
	pipe   *ingest.Pipeline
	alerts *alertDrain
	next   int // next global tick to feed
	// warm-up totals, subtracted from the end-of-run counters
	warmRecords, warmSteps uint64
}

// closedHooks lets the traced run interpose on the boundaries the
// benchmark owns; the zero value is the untraced configuration.
type closedHooks struct {
	wrapSink func(ingest.Submitter) ingest.Submitter
	tracer   *trace.Recorder
}

// alertDrain keeps an engine's alert channel empty and counts what came
// out of it.
type alertDrain struct {
	n    atomic.Int64
	done chan struct{}
}

func drainAlerts(ch <-chan engine.AlertEvent) *alertDrain {
	d := &alertDrain{done: make(chan struct{})}
	go func() {
		defer close(d.done)
		for range ch {
			d.n.Add(1)
		}
	}()
	return d
}

func (d *alertDrain) count() int { return int(d.n.Load()) }

func newModel(hidden int, seed int64) (*core.Model, error) {
	cfg := core.DefaultConfig(features.NumFeatures)
	cfg.Hidden = hidden
	cfg.Seed = seed
	return core.New(cfg)
}

func servingMonitor(m *core.Model, ex *features.Extractor, threshold float64) engine.MonitorConfig {
	return engine.MonitorConfig{
		Default:   m,
		Extractor: ex,
		Threshold: threshold,
		Precision: core.PrecisionFloat32,
	}
}

// servingEngine is the engine configuration every serving workload uses.
// Background snapshots are off: one 10 s-interval snapshot landing inside
// or outside a 15 s timed run would be run-to-run noise; the traced run
// reports the checkpoint's cost on its own (engine.checkpoint_ms).
func servingEngine(mc engine.MonitorConfig, shards int, step time.Duration) engine.Config {
	return engine.Config{
		Monitor:            mc,
		Shards:             shards,
		Policy:             engine.Block,
		Step:               step,
		CheckpointInterval: -1,
	}
}

// setupClosed builds the inputs, starts engine and pipeline, and runs the
// warm-up. Everything it does is set-up time.
func setupClosed(spec closedSpec, seed int64, hooks closedHooks) (*closedEnv, error) {
	st, err := buildStream(spec, seed)
	if err != nil {
		return nil, err
	}
	model, err := newModel(spec.hidden, seed)
	if err != nil {
		return nil, err
	}
	e := &closedEnv{st: st, model: model, mc: servingMonitor(model, st.extractor, neverFires)}
	ecfg := servingEngine(e.mc, engineShards, stepDur)
	ecfg.Trace = hooks.tracer
	if e.eng, err = engine.New(ecfg); err != nil {
		return nil, err
	}
	e.alerts = drainAlerts(e.eng.Alerts())
	var sink ingest.Submitter = e.eng
	if hooks.wrapSink != nil {
		sink = hooks.wrapSink(sink)
	}
	e.pipe, err = ingest.New(ingest.Config{
		DecodeWorkers: 1,
		AggWorkers:    1,
		Step:          stepDur,
		Lateness:      closedLateness,
		Sink:          sink,
		Trace:         hooks.tracer,
	})
	if err != nil {
		e.eng.Close()
		return nil, err
	}
	for ; e.next < spec.warmup; e.next++ {
		e.warmRecords += uint64(st.feedTick(e.next, e.pipe.HandlePacket))
	}
	e.warmSteps = e.owed(spec.warmup - 1)
	if err := e.waitSteps(e.warmSteps, 60*time.Second); err != nil {
		e.teardown()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return e, nil
}

// owed is how many verdicts are due once tick g's datagrams are all in:
// step k seals when event time passes (k+1)·step plus the one-step
// lateness allowance, i.e. on tick k+2's first record, and every customer
// has records in every step.
func (e *closedEnv) owed(g int) uint64 {
	if g < 1 {
		return 0
	}
	return uint64(g-1) * uint64(len(e.st.customers))
}

func (e *closedEnv) waitSteps(n uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		st := e.eng.Stats()
		if st.Steps+st.Missing >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d verdicts after %v", st.Steps+st.Missing, n, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func (e *closedEnv) teardown() {
	e.pipe.Close()
	e.eng.Close()
	<-e.alerts.done
	e.st.release()
}

// verdictObserver samples a verdict counter on a fixed period, so "when
// did the count reach n" can be answered after the run without touching
// the system's hot path.
type verdictObserver struct {
	at    []time.Time
	count []uint64
	stop  chan struct{}
	done  chan struct{}
}

func observeVerdicts(read func() uint64, expect time.Duration) *verdictObserver {
	n := int(expect/observerTick)*2 + 1024
	o := &verdictObserver{
		at: make([]time.Time, 0, n), count: make([]uint64, 0, n),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go func() {
		defer close(o.done)
		t := time.NewTicker(observerTick)
		defer t.Stop()
		for {
			select {
			case <-o.stop:
			case <-t.C:
			}
			// Stamped after the read: the count was reached no later than this.
			o.count = append(o.count, read())
			o.at = append(o.at, time.Now())
			select {
			case <-o.stop:
				return
			default:
			}
		}
	}()
	return o
}

func (o *verdictObserver) finish() {
	close(o.stop)
	<-o.done
}

// reached returns the time of the first sample, searching from index
// *from, at which the counter was at least n; ok is false if it never was.
// Calls must be made with non-decreasing n.
func (o *verdictObserver) reached(n uint64, from *int) (time.Time, bool) {
	for ; *from < len(o.count); *from++ {
		if o.count[*from] >= n {
			return o.at[*from], true
		}
	}
	return time.Time{}, false
}

// tickMark is what the generator records per timed tick.
type tickMark struct {
	start time.Time // when the tick was due (open loop) or begun (closed loop)
	owed  uint64    // verdicts due once the tick's datagrams are in
}

// verdictLatencies turns tick marks and observer samples into
// wire-to-verdict samples in ms, one per tick that made new verdicts due.
// missing counts ticks whose verdicts never showed up.
func verdictLatencies(marks []tickMark, o *verdictObserver) (ms []float64, missing int) {
	from := 0
	var prev uint64
	for _, m := range marks {
		if m.owed <= prev {
			continue
		}
		prev = m.owed
		at, ok := o.reached(m.owed, &from)
		if !ok {
			missing++
			continue
		}
		ms = append(ms, max(0, at.Sub(m.start).Seconds()*1e3))
	}
	return ms, missing
}

// closedTimed is what the timed section of a closed-loop run measured.
type closedTimed struct {
	wall, cpu      float64
	records, steps uint64
	marks          []tickMark
	obs            *verdictObserver
	mallocs        uint64
	gcPauseMs      float64
	heapMB         float64
}

// runTimed feeds whole ticks for the given duration, then closes the
// pipeline (flushing the open steps) and drains the engine: first packet
// to last verdict.
func (e *closedEnv) runTimed(d time.Duration, sink func(string, []byte)) (closedTimed, error) {
	var tm closedTimed
	if sink == nil {
		sink = e.pipe.HandlePacket
	}
	tm.obs = observeVerdicts(func() uint64 {
		st := e.eng.Stats()
		return st.Steps + st.Missing
	}, d)
	u0 := snapshot()
	for time.Since(u0.at) < d {
		if err := e.waitSteps(e.owed(e.next-closedWindow), 60*time.Second); err != nil {
			return tm, err
		}
		tm.marks = append(tm.marks, tickMark{start: time.Now(), owed: e.owed(e.next)})
		e.st.feedTick(e.next, sink)
		e.next++
	}
	if err := e.pipe.Close(); err != nil {
		return tm, err
	}
	if err := e.eng.Drain(); err != nil {
		return tm, err
	}
	u1 := snapshot()
	tm.obs.finish()
	tm.wall = u1.at.Sub(u0.at).Seconds()
	tm.cpu = u1.cpu - u0.cpu
	tm.mallocs = u1.mallocs - u0.mallocs
	tm.gcPauseMs = float64(u1.pauseNs-u0.pauseNs) / 1e6
	ps, es := e.pipe.Stats(), e.eng.Stats()
	tm.records = ps.Records - e.warmRecords
	tm.steps = es.Steps + es.Missing - e.warmSteps
	tm.heapMB = heapMB()
	return tm, nil
}

// runClosed is the -trace 0 run of a closed-loop workload.
func runClosed(spec closedSpec, opt options, rep *report) error {
	t0 := time.Now()
	env, err := setupClosed(spec, opt.seed, closedHooks{})
	if err != nil {
		return err
	}
	defer env.teardown()
	rep.set("setup_s", time.Since(t0).Seconds())
	rep.note("stream_hash", fmt.Sprintf("%016x", env.st.hash))
	tm, err := env.runTimed(opt.duration, nil)
	if err != nil {
		return err
	}
	tm.report(rep)
	rep.set("heap_mb", tm.heapMB)
	return env.verify(rep)
}

// report sets what an untraced timed run measured: the workload's unit of
// work is the customer-step.
func (tm closedTimed) report(rep *report) {
	lat, missing := verdictLatencies(tm.marks, tm.obs)
	sort.Float64s(lat)
	rep.setLag(lat)
	rep.check(int64(len(lat)+missing), int64(missing), "ticks whose verdicts were never observed")
	rep.set("units_per_s", float64(tm.steps)/tm.wall)
	rep.set("cpu_ms_per_unit", tm.cpu*1e3/float64(tm.steps))
	rep.set("steps_per_s", float64(tm.steps)/tm.wall)
	rep.set("records_per_s", float64(tm.records)/tm.wall)
	rep.set("cpu_s_per_mrecord", tm.cpu/(float64(tm.records)/1e6))
	rep.set("runtime.cpu_s_per_wall_s", tm.cpu/tm.wall)
	rep.set("runtime.allocs_per_record", float64(tm.mallocs)/float64(tm.records))
	rep.set("runtime.gc_pause_ms", tm.gcPauseMs)
}

// verify runs the correctness checks of a finished closed-loop run:
// accounting identities against the generator's own counts, and the
// sampled customers' detector state against the serial reference.
func (e *closedEnv) verify(rep *report) error {
	var sent uint64
	for g := 0; g < e.next; g++ {
		sent += uint64(e.st.tickRecs[g%e.st.spec.passTicks])
	}
	wantSteps := uint64(e.next) * uint64(len(e.st.customers))
	ps, es := e.pipe.Stats(), e.eng.Stats()
	lostIn := sent - min(sent, ps.Records)
	rep.check(int64(sent), int64(lostIn+ps.DroppedLate+ps.LostRecords), "records sent but not decoded and aggregated")
	rep.check(int64(ps.Packets), int64(ps.BadPackets+ps.DupPackets+ps.ReorderedPackets), "datagrams seen as bad, duplicate or reordered")
	rep.check(int64(wantSteps), int64(diff(ps.Steps, wantSteps)), "sealed steps differ from the generator's count")
	rep.check(int64(wantSteps), int64(diff(es.Steps+es.Missing, wantSteps)+es.Shed+es.Lost+es.Bypassed), "verdicts shed, lost, bypassed or undelivered")
	if es.Steps+es.Missing+es.Bypassed+es.Shed != es.Submitted {
		rep.check(1, 1, fmt.Sprintf("engine identity broken: steps %d + missing %d + bypassed %d + shed %d != submitted %d",
			es.Steps, es.Missing, es.Bypassed, es.Shed, es.Submitted))
	}
	rep.set("engine.alerts", float64(e.alerts.count()))
	rep.check(1, int64(e.alerts.count()), "alerts on a workload whose threshold never fires")

	sampled := sampler().Sampled
	var got bytes.Buffer
	if _, err := e.eng.CheckpointCustomers(&got, sampled); err != nil {
		return fmt.Errorf("checkpointing sampled customers: %w", err)
	}
	ref, err := newReplayer(e.mc, stepDur, closedLateness, sampled, nil)
	if err != nil {
		return err
	}
	for g := 0; g < e.next; g++ {
		e.st.feedTick(g, ref.handlePacket)
	}
	ref.flush()
	var want bytes.Buffer
	if err := ref.mon.Checkpoint(&want); err != nil {
		return err
	}
	nSampled := 0
	for _, c := range e.st.customers {
		if sampled(c) {
			nSampled++
		}
	}
	rep.check(int64(sent), int64(diff(ref.records, sent)), "reference decoded a different record count")
	rep.check(int64(nSampled*e.next), int64(diff(ref.sealed, uint64(nSampled*e.next))), "reference sealed a different step count for the sample")
	compared, differing, err := stateMismatches(got.Bytes(), want.Bytes())
	if err != nil {
		return err
	}
	if compared == 0 {
		rep.check(1, 1, "no sampled channel to compare")
	}
	rep.check(int64(compared), int64(differing), "sampled detector channels differ from the serial reference")
	rep.note("state_checksum", fmt.Sprintf("%016x", stateChecksum(got.Bytes())))
	rep.note("sampled_customers", nSampled)
	return nil
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
