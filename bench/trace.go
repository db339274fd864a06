package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xatu-go/xatu/internal/ingest"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/trace"
)

// The traced run. End-to-end metrics are measured with tracing off; this
// run (a) repeats a shorter timed run with spans recorded at the
// boundaries the benchmark owns and the repo's own flow tracer at 1-in-1,
// beside an untraced twin, so the difference is the tracing overhead, and
// (b) replays captured input through each layer alone (layers.go) to fill
// the ledger.

// span is one interval at a boundary the benchmark owns.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
	Tick   int32  `json:"tick"`
}

// spanLog keeps spans in memory and writes them out when the run ends.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	next   int32
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// add records a finished span and returns its id.
func (l *spanLog) add(parent int32, name string, tick int, start, end time.Time) int32 {
	id := l.reserve()
	l.addWithID(id, parent, name, tick, start, end)
	return id
}

// reserve hands out an id for a span whose children finish before it does.
func (l *spanLog) reserve() int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) addWithID(id, parent int32, name string, tick int, start, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Tick: int32(tick),
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds(),
	})
}

func (l *spanLog) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	l.mu.Lock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, l.spans})
	l.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// spanEvery is the tick stride at which per-datagram and per-step spans
// are kept; tick spans are always kept. Per-step spans on every tick of a
// wide workload would be millions.
const spanEvery = 8

// tracedSink is the Submitter interposed between ingest and engine.
type tracedSink struct {
	next      ingest.Submitter
	log       *spanLog
	curSpan   *atomic.Int32  // span id of the tick the generator is in
	tickStart []atomic.Int64 // unix ns the generator began each global tick
	sealTicks int            // ticks between a step and the tick that seals it
	mu        sync.Mutex
	sealToSub []float64 // ms
}

func (s *tracedSink) Submit(customer netip.Addr, at time.Time, flows []netflow.Record) error {
	t0 := time.Now()
	err := s.next.Submit(customer, at, flows)
	t1 := time.Now()
	step := stepIndex(at)
	if trig := step + s.sealTicks; trig >= 0 && trig < len(s.tickStart) {
		if ns := s.tickStart[trig].Load(); ns != 0 {
			s.mu.Lock()
			s.sealToSub = append(s.sealToSub, float64(t0.UnixNano()-ns)/1e6)
			s.mu.Unlock()
		}
	}
	if step%spanEvery == 0 {
		s.log.add(s.curSpan.Load(), "engine.Submit", step, t0, t1)
	}
	return err
}

// stageP50 interpolates the median of one of the repo's own per-stage
// latency histograms (log2 buckets, µs).
func stageP50(stats []trace.StageStat, stage string) float64 {
	for _, st := range stats {
		if st.Stage != stage || st.Count == 0 {
			continue
		}
		half := float64(st.Count) / 2
		var cum float64
		for i, n := range st.Buckets {
			if cum+float64(n) >= half && n > 0 {
				lo, hi := 0.0, 1.0
				if i > 0 {
					lo, hi = float64(uint64(1)<<(i-1)), float64(uint64(1)<<i)
				}
				return lo + (hi-lo)*(half-cum)/float64(n)
			}
			cum += float64(n)
		}
	}
	return 0
}

// mergeStages sums per-stage histograms from several recorders.
func mergeStages(all ...[]trace.StageStat) []trace.StageStat {
	by := map[string]*trace.StageStat{}
	var order []string
	for _, stats := range all {
		for _, st := range stats {
			m, ok := by[st.Stage]
			if !ok {
				c := st
				c.Buckets = append([]uint64(nil), st.Buckets...)
				by[st.Stage] = &c
				order = append(order, st.Stage)
				continue
			}
			m.Count += st.Count
			m.SumUS += st.SumUS
			for i := range st.Buckets {
				if i < len(m.Buckets) {
					m.Buckets[i] += st.Buckets[i]
				}
			}
		}
	}
	out := make([]trace.StageStat, 0, len(order))
	for _, s := range order {
		out = append(out, *by[s])
	}
	return out
}

// traceClosed is the -trace 1 run of a closed-loop workload.
func traceClosed(spec closedSpec, opt options, rep *report) error {
	phase := opt.duration / 2

	// untraced twin
	plain, err := setupClosed(spec, opt.seed, closedHooks{})
	if err != nil {
		return err
	}
	off, err := plain.runTimed(phase, nil)
	plain.teardown()
	if err != nil {
		return err
	}

	// traced: spans at our boundaries, the repo's tracer on every customer
	log := newSpanLog()
	rec := trace.NewRecorder("bench", trace.NewSampler(1), 4096)
	var curSpan atomic.Int32
	sink := &tracedSink{log: log, curSpan: &curSpan,
		tickStart: make([]atomic.Int64, 1<<16), sealTicks: 2}
	env, err := setupClosed(spec, opt.seed, closedHooks{
		tracer:   rec,
		wrapSink: func(next ingest.Submitter) ingest.Submitter { sink.next = next; return sink },
	})
	if err != nil {
		return err
	}
	defer env.teardown()
	var framed []byte
	var tickID int32
	cur, tickBegan := -1, time.Now() // the tick the generator is in
	handle := func(src string, pkt []byte) {
		if env.next != cur {
			// first datagram of a new tick: close the previous tick's span
			now := time.Now()
			if tickID != 0 {
				log.addWithID(tickID, 0, "gen.tick", cur, tickBegan, now)
			}
			cur, tickBegan, tickID = env.next, now, log.reserve()
			curSpan.Store(tickID)
			if cur < len(sink.tickStart) {
				sink.tickStart[cur].Store(now.UnixNano())
			}
		}
		// The exporter's trace trailer, stamped as a router would, so the
		// repo's export→decode stage has an anchor.
		framed = netflow.AppendTrailerV1(append(framed[:0], pkt...), 1, time.Now())
		if cur%spanEvery != 0 {
			env.pipe.HandlePacket(src, framed)
			return
		}
		t0 := time.Now()
		env.pipe.HandlePacket(src, framed)
		log.add(tickID, "ingest.HandlePacket", cur, t0, time.Now())
	}
	on, err := env.runTimed(phase, handle)
	if err != nil {
		return err
	}
	if tickID != 0 {
		log.addWithID(tickID, 0, "gen.tick", cur, tickBegan, time.Now())
	}
	if err := env.verify(rep); err != nil {
		return err
	}
	path, err := log.write(opt.outDir, spec.name)
	if err != nil {
		return err
	}
	rep.note("trace_file", path)
	rep.note("spans", len(log.spans))

	offRPS, onRPS := float64(off.records)/off.wall, float64(on.records)/on.wall
	rep.set("trace.overhead_share", 1-onRPS/offRPS)
	rep.note("records_per_s_untraced_traced", []float64{offRPS, onRPS})
	stats := rec.StageStats()
	rep.set("trace.export_to_decode_us_p50", stageP50(stats, "decode"))
	rep.set("trace.decode_to_seal_us_p50", stageP50(stats, "seal"))
	rep.set("trace.step_us_p50", stageP50(stats, "step"))
	sort.Float64s(sink.sealToSub)
	rep.set("ingest.seal_to_submit_ms_p50", percentile(sink.sealToSub, 50))

	off.report(rep) // the untraced twin: tracing is off where end-to-end quantities are read
	es, ps := env.eng.Stats(), env.pipe.Stats()
	rep.set("engine.step_avg_us", es.AvgStep().Seconds()*1e6)
	rep.set("engine.queue_high_water", float64(es.QueueHighWater))
	rep.set("engine.shard_skew", shardSkew(es.Shards[0].Steps, es.Shards[1].Steps))
	rep.set("engine.shed_share", float64(es.Shed)/float64(max(es.Submitted, 1)))
	rep.set("ingest.pool_miss_share", float64(ps.PoolMisses+ps.AggPoolMisses)/float64(max(ps.PoolHits+ps.PoolMisses+ps.AggPoolHits+ps.AggPoolMisses, 1)))
	rep.set("ingest.dropped_late_share", float64(ps.DroppedLate)/float64(max(ps.Records, 1)))

	// Isolated layers over ticks the traced run did not reach, so event
	// time is fresh for each stage's own aggregator.
	ticks, minTime := layerTicks(spec), layerMinTime
	if opt.smoke {
		ticks, minTime = 4, layerMinTime/20
	}
	from := env.next
	lc, err := measureLayers(capture{
		step: stepDur, lateness: closedLateness, mc: env.mc, minTime: minTime,
		replay: func(sink func(string, []byte)) {
			for g := from; g < from+ticks; g++ {
				env.st.feedTick(g, sink)
			}
		},
	}, opt.seed)
	if err != nil {
		return err
	}
	wallUS := off.wall * 1e6 / float64(off.steps)
	cpuUS := off.cpu * 1e6 / float64(off.steps)
	stress := "ingest"
	if spec.recsPerStep < 100 {
		stress = "model"
	}
	lc.report(rep, buildLedger(lc, stress, wallUS, cpuUS), !opt.smoke)
	return nil
}

// layerTicks sizes the capture: enough steps that the slowest single-pass
// stage (the Monitor over every step) runs about a second, few enough
// records that the copies each stage keeps do not turn the measurement
// into one of the garbage collector.
func layerTicks(spec closedSpec) int {
	byRecords := (256 << 10) / (spec.customers * spec.recsPerStep)
	bySteps := (16 << 10) / spec.customers
	return max(min(byRecords, bySteps, 64), 4)
}

// shardSkew is how far the busier of two shards is above an even split.
func shardSkew(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(max(a, b))/(float64(a+b)/2) - 1
}

// tracePaced is the -trace 1 run of isp_paced: a traced twin, then an
// untraced one of the same seed and length. Both are checked against the
// reference; the untraced twin runs second so that its numbers are the ones
// that stand wherever both set a metric.
func tracePaced(opt options, rep *report) error {
	ticks := pacedTicks(opt)
	onCPU, err := tracedPacedTwin(opt, ticks, rep)
	if err != nil {
		return err
	}

	env, err := setupPaced(opt, 0, ticks)
	if err != nil {
		return err
	}
	defer env.teardown()
	off, err := env.runTimed(ticks, nil)
	if err != nil {
		return err
	}
	if err := env.finishPaced(off, rep); err != nil {
		return err
	}
	// At a pinned rate tracing cannot slow the records, so its overhead is
	// read off the CPU each record costs.
	offCPU := off.cpu / (env.ingested().records - off.records0)
	rep.set("trace.overhead_share", onCPU/offCPU-1)

	// cluster.Router alone: the same records into sockets that discard.
	routeNs, err := env.routeCost()
	if err != nil {
		return err
	}
	rep.set("cluster.route_ns_per_record", routeNs)

	// Isolated layers over the head of what the tap captured.
	maxDgrams, minTime := 12000, layerMinTime
	if opt.smoke {
		maxDgrams, minTime = 400, layerMinTime/20
	}
	lc, err := measureLayers(capture{
		step: env.cfg.World.Step, lateness: 2 * env.cfg.World.Step, mc: env.mc, minTime: minTime,
		replay: func(sink func(string, []byte)) {
			for i, d := range env.tap.dgs {
				if i >= maxDgrams {
					break
				}
				if d.node == 0 {
					sink("router", env.tap.arena[d.off:d.off+d.n])
				}
			}
		},
	}, opt.seed)
	if err != nil {
		return err
	}
	steps := float64(off.final - off.verdicts0)
	lc.report(rep, buildLedger(lc, "", off.wall*1e6/steps, off.cpu*1e6/steps), !opt.smoke)
	return nil
}

// tracedPacedTwin runs isp_paced with the repo's tracer at 1-in-1 and spans
// at the boundaries the benchmark owns, writes the span file, and returns
// the CPU seconds each record cost.
func tracedPacedTwin(opt options, ticks int, rep *report) (cpuPerRecord float64, err error) {
	env, err := setupPaced(opt, 1, ticks)
	if err != nil {
		return 0, err
	}
	defer env.teardown()
	log := newSpanLog()
	// alert watcher: when does each alert become visible at the coordinator
	type seenAlert struct {
		step int
		at   time.Time
	}
	var seen []seenAlert
	stopWatch, watchDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(watchDone)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case now := <-t.C:
				if got := env.coord.Alerts(); len(got) > len(seen) {
					for _, a := range got[len(seen):] {
						seen = append(seen, seenAlert{env.stepOf(a.At), now})
					}
				}
			}
		}
	}()
	due := make([]time.Time, ticks)
	on, err := env.runTimed(ticks, func(k int, d, sent, done time.Time) {
		due[k] = d
		id := log.add(0, "gen.tick", k, d, done)
		log.add(id, "cluster.Router.Export+Flush", k, sent, done)
	})
	close(stopWatch)
	<-watchDone
	if err != nil {
		return 0, err
	}
	// One span per datagram the tap wrote to a socket, on sampled ticks.
	for _, d := range env.tap.dgs {
		if d.tick >= 0 && d.tick < ticks && d.tick%spanEvery == 0 {
			log.add(0, "tap.Write", d.tick, time.Unix(0, d.start), time.Unix(0, d.end))
		}
	}
	// An alert for step s can fire once tick s+3 has landed (one step plus
	// the two-step lateness allowance): time it from that tick's due time.
	var alertMs []float64
	for _, a := range seen {
		k := a.step - env.first + 3
		if k >= 0 && k < ticks {
			alertMs = append(alertMs, max(0, a.at.Sub(due[k]).Seconds()*1e3))
			log.add(0, "coordinator.alert", k, due[k], a.at)
		}
	}
	sort.Float64s(alertMs)
	rep.set("cluster.wire_to_alert_p50_ms", percentile(alertMs, 50))
	rep.note("wire_to_alert_samples", len(alertMs))

	var stages [][]trace.StageStat
	for _, n := range env.nodes {
		st, err := fetchStages(n.Info().Metrics)
		if err != nil {
			return 0, err
		}
		stages = append(stages, st)
	}
	stats := mergeStages(stages...)
	rep.set("trace.export_to_decode_us_p50", stageP50(stats, "decode"))
	rep.set("trace.decode_to_seal_us_p50", stageP50(stats, "seal"))
	rep.set("trace.step_us_p50", stageP50(stats, "step"))

	if err := env.finishPaced(on, rep); err != nil {
		return 0, err
	}
	path, err := log.write(opt.outDir, "isp_paced")
	if err != nil {
		return 0, err
	}
	rep.note("trace_file", path)
	rep.note("spans", len(log.spans))
	return on.cpu / (env.ingested().records - on.records0), nil
}

// fetchStages reads a node's per-stage latency histograms from the
// /debug/trace endpoint its telemetry server exposes — the instrument an
// operator reads.
func fetchStages(addr string) ([]trace.StageStat, error) {
	resp, err := http.Get("http://" + addr + "/debug/trace")
	if err != nil {
		return nil, fmt.Errorf("fetching /debug/trace: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading /debug/trace: %w", err)
	}
	var doc struct {
		Stages []trace.StageStat `json:"stages"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("decoding /debug/trace: %w", err)
	}
	return doc.Stages, nil
}
