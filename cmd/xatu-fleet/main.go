// Command xatu-fleet is the distributed-serving acceptance harness: it
// trains a model in-process, then replays the simulated world's test
// window through a real fleet — coordinator + N engine nodes, a
// table-following ingest router fanning NetFlow v5 over UDP to each
// node's pipeline — at 1, 2 and 4 nodes. The multi-node runs exercise
// the live-migration protocol (a node joins mid-run and warm detector
// state streams to it), a forced rebalance, and a node kill + rejoin
// under the same ID. Cluster-wide detections come from the
// coordinator's deduped alert fan-in and are compared per-episode
// against the 1-node baseline run of the identical path.
//
// The nodes serve as a deployment does, through the float32 lanes; the
// parity assertions compare each run with the harness's own 1-node
// baseline, served the same way. `go test -bench`-style result lines go to
// stdout, the human summary to stderr. The records/sec in them is
// pace-limited by -rate and is not a capacity number.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/xatu-go/xatu"
)

func main() {
	var (
		days    = flag.Int("days", 6, "simulated world length")
		seed    = flag.Int64("seed", 7, "world seed")
		epochs  = flag.Int("epochs", 8, "training epochs")
		shards  = flag.Int("shards", 2, "engine shards per node")
		rate    = flag.Duration("rate", time.Millisecond, "pacing delay per simulated step")
		settle  = flag.Int("settle", 30, "recovery window after a fleet event, in steps, excluded from the parity assert")
		drift   = flag.Int("drift", 5, "detection-delay parity envelope, in steps")
		smoke   = flag.Bool("smoke", false, "cut-down CI fleet: 2-day world, 4 epochs")
		assert  = flag.Bool("assert", false, "exit non-zero unless cluster-wide alert parity holds")
		traceN  = flag.Int("trace", 0, "trace mode: run the fleet with 1-in-N flow tracing, assert assembled cross-node timelines and bounded overhead (skips the 4-node run)")
		verbose = flag.Bool("v", false, "log cluster-layer events")
	)
	flag.Parse()
	if *smoke {
		*days, *epochs = 2, 4
	}

	progress("training: %d-day world, seed %d, %d epochs", *days, *seed, *epochs)
	cfg := xatu.BenchPipelineConfig(*days, *seed)
	cfg.Train.Epochs = *epochs
	p, err := xatu.NewPipeline(cfg)
	if err != nil {
		fatal("%v", err)
	}
	ml, err := xatu.NewMLContext(p)
	if err != nil {
		fatal("%v", err)
	}
	sys, err := ml.XatuAt(0.4)
	if err != nil {
		fatal("%v", err)
	}
	fl := &fleet{
		p: p, ml: ml, cfg: cfg,
		thr:     1 - sys.Threshold,
		eps:     p.MatchedEpisodes(p.StabEnd, cfg.World.Steps()),
		shards:  *shards,
		rate:    *rate,
		verbose: *verbose,
	}
	progress("test window: steps [%d, %d), %d matched episodes, survival threshold %.4f",
		p.StabEnd, cfg.World.Steps(), len(fl.eps), fl.thr)

	if *traceN > 0 {
		// The bench worlds carry few customers, so the configured rate may
		// sample none of them; halve until enough matched-episode customers
		// are sampled that the assembled-timeline asserts are meaningful.
		fl.traceN = fl.pickTraceRate(*traceN)
		progress("trace mode: sampling 1/%d for assembly runs (requested 1/%d), overhead pair at the requested rate",
			fl.traceN, *traceN)
	}

	// The baseline is a 1-node fleet through the identical path —
	// coordinator, node, router — so parity isolates the cluster layer.
	progress("run: 1 node (baseline)")
	base := fl.run(1, nil)
	progress("run: 2 nodes (node-2 joins live at 35%%)")
	two := fl.run(1, []fleetEvent{{Frac: 0.35, Action: "join", Node: "node-2"}})
	results := []struct {
		nodes int
		res   *runResult
	}{{1, base}, {2, two}}
	if *traceN == 0 {
		progress("run: 4 nodes (join 30%%, rebalance 45%%, kill 55%%, rejoin 75%%)")
		four := fl.run(3, []fleetEvent{
			{Frac: 0.30, Action: "join", Node: "node-4"},
			{Frac: 0.45, Action: "rebalance"},
			{Frac: 0.55, Action: "kill", Node: "node-3"},
			{Frac: 0.75, Action: "rejoin", Node: "node-3"},
		})
		results = append(results, struct {
			nodes int
			res   *runResult
		}{4, four})
	}

	var violations []string
	for _, r := range results {
		par := fl.compare(base, r.res, *settle, *drift)
		fmt.Printf("BenchmarkFleetNodes%d 1 %d ns/op %.1f records/sec %.2f migration-pause-ms %d max-drift-steps %d nodes\n",
			r.nodes, r.res.wall.Nanoseconds(), r.res.rps(), r.res.pauseMax.Seconds()*1000, par.maxAbsDrift, r.nodes)
		progress("%d node(s): %.0f records/s, %d/%d episodes compared (%d in event windows), max |drift| %d, migrated in/out %d/%d, pauses max %v",
			r.nodes, r.res.rps(), par.compared, len(fl.eps), par.excluded, par.maxAbsDrift,
			r.res.migratedIn, r.res.migratedOut, r.res.pauseMax)
		if r.nodes > 1 {
			violations = append(violations, par.violations...)
			if r.res.migratedIn == 0 {
				violations = append(violations, fmt.Sprintf("%d-node run: no channels were live-migrated", r.nodes))
			}
		}
	}

	if *traceN > 0 {
		violations = append(violations, fl.checkTraces(two)...)
		violations = append(violations, fl.checkOverhead(*traceN)...)
	}

	if *assert {
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "xatu-fleet: ASSERT FAILED: %s\n", v)
			}
			os.Exit(1)
		}
		progress("cluster-wide alert parity holds (drift ≤ %d steps outside %d-step event windows)", *drift, *settle)
		if *traceN > 0 {
			progress("trace asserts hold (assembled cross-node timelines, overhead within 5%%)")
		}
	}
}

// fleet carries the trained context shared by every run.
type fleet struct {
	p       *xatu.Pipeline
	ml      *xatu.MLContext
	cfg     xatu.PipelineConfig
	thr     float64
	eps     []xatu.Episode
	shards  int
	rate    time.Duration
	traceN  int // 1-in-N flow tracing for assembly runs; 0 = off
	verbose bool
}

// fleetEvent is one scheduled membership event at a fraction of the
// test window.
type fleetEvent struct {
	Frac   float64
	Action string // join | rebalance | kill | rejoin
	Node   string
}

// runResult is everything one fleet pass produced.
type runResult struct {
	detect      map[int]int // episode index → detection step (-1 = never)
	eventSteps  []int       // steps where a fleet event fired
	wall        time.Duration
	exported    uint64
	migratedIn  uint64
	migratedOut uint64
	forwarded   uint64
	dropped     uint64
	pauseMax    time.Duration
	pauseTotal  time.Duration
	timelines   []wireTimeline // assembled traces (trace mode only)
}

// wireTimeline / wireSpan mirror the coordinator's /v1/traces document.
type wireSpan struct {
	Stage string `json:"stage"`
	Node  string `json:"node"`
}

type wireTimeline struct {
	Customer string     `json:"customer"`
	Spans    []wireSpan `json:"spans"`
}

type wireTraces struct {
	Rate      int            `json:"rate"`
	Timelines []wireTimeline `json:"timelines"`
}

func (r *runResult) rps() float64 {
	if s := r.wall.Seconds(); s > 0 {
		return float64(r.exported) / s
	}
	return 0
}

// parity is one fleet run's per-episode comparison against the baseline.
type parity struct {
	compared    int
	excluded    int
	maxAbsDrift int
	violations  []string
}

func (f *fleet) logf(format string, args ...any) {
	if f.verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

func (f *fleet) startNode(id, coord string) *xatu.ClusterNode {
	world := f.cfg.World
	n, err := xatu.StartClusterNode(xatu.ClusterNodeConfig{
		ID:          id,
		Coordinator: coord,
		Engine: xatu.EngineConfig{
			Monitor: xatu.MonitorConfig{
				Models:        f.ml.Models.ByType,
				Default:       f.ml.Models.Shared,
				Extractor:     f.p.Extractor(nil, nil),
				Threshold:     f.thr,
				MissingPolicy: xatu.MissingCarry,
			},
			Shards: f.shards,
			Policy: xatu.BackpressureBlock,
			Step:   world.Step,
		},
		DecodeWorkers:  1,
		AggWorkers:     1,
		Step:           world.Step,
		Lateness:       2 * world.Step,
		QueueDepth:     1024,
		HeartbeatEvery: 100 * time.Millisecond,
		MigrateTimeout: 2 * time.Second,
		TraceSample:    f.traceN,
		Logf:           f.logf,
	})
	if err != nil {
		fatal("node %s: %v", id, err)
	}
	if err := n.WaitReady(10 * time.Second); err != nil {
		fatal("%v", err)
	}
	return n
}

// run replays the test window through a fleet of initial nodes
// node-1..node-<initial>, firing the scheduled membership events, and
// returns cluster-wide per-episode detection steps from the
// coordinator's deduped fan-in.
func (f *fleet) run(initial int, sched []fleetEvent) *runResult {
	world := f.cfg.World
	stepDur := world.Step
	t0 := world.TimeOf(0)
	stab, total := f.p.StabEnd, world.Steps()
	testSteps := total - stab

	coord := xatu.NewCoordinator(xatu.CoordinatorConfig{
		Shards:           f.shards,
		HeartbeatTimeout: 600 * time.Millisecond,
		SweepEvery:       100 * time.Millisecond,
		DedupWindow:      10 * time.Minute,
		Telemetry:        xatu.NewTelemetryRegistry(),
		TraceSample:      f.traceN,
		Logf:             f.logf,
	})
	srv, err := coord.StartServer("127.0.0.1:0")
	if err != nil {
		fatal("coordinator: %v", err)
	}

	live := map[string]*xatu.ClusterNode{}
	for i := 1; i <= initial; i++ {
		id := fmt.Sprintf("node-%d", i)
		live[id] = f.startNode(id, srv.Addr())
	}

	router, err := xatu.StartClusterRouter(xatu.ClusterRouterConfig{
		Coordinator: srv.Addr(),
		Refresh:     75 * time.Millisecond,
		BootTime:    t0.Add(-time.Minute),
		TraceSample: f.traceN,
		Logf:        f.logf,
	})
	if err != nil {
		fatal("router: %v", err)
	}

	res := &runResult{detect: map[int]int{}}

	// settleTables blocks the replay until the coordinator's current
	// table has propagated to the router and every live node, so the
	// paced loss window around a membership change is bounded by
	// in-flight datagrams rather than by failover wall time. Migration
	// itself stays concurrent with the replay — only table propagation
	// gates here.
	settleTables := func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			v := coord.CurrentTable().Version
			ok := router.TableVersion() == v
			for _, n := range live {
				if n.TableVersion() != v {
					ok = false
				}
			}
			if ok {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		fatal("tables did not converge within 5s")
	}

	act := func(ev fleetEvent, step int) {
		switch ev.Action {
		case "join", "rejoin":
			live[ev.Node] = f.startNode(ev.Node, srv.Addr())
		case "kill":
			n := live[ev.Node]
			delete(live, ev.Node)
			if err := n.Kill(); err != nil {
				fatal("kill %s: %v", ev.Node, err)
			}
			// The coordinator notices by heartbeat timeout; wait for the
			// shrunk table before settleTables polls node versions.
			deadline := time.Now().Add(5 * time.Second)
			for len(coord.CurrentTable().Nodes) != len(live) && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
			}
		case "rebalance":
			coord.Rebalance()
		default:
			fatal("unknown fleet event %q", ev.Action)
		}
		settleTables()
		res.eventSteps = append(res.eventSteps, step)
		progress("  step %d (%.0f%%): %s %s → table v%d, %d nodes",
			step, 100*float64(step-stab)/float64(testSteps), ev.Action, ev.Node,
			coord.CurrentTable().Version, len(coord.CurrentTable().Nodes))
	}

	start := time.Now()
	next := 0
	for s := stab; s < total; s++ {
		frac := float64(s-stab) / float64(testSteps)
		for next < len(sched) && frac >= sched[next].Frac {
			act(sched[next], s)
			next++
		}
		for ci := range f.p.World.Customers {
			for _, r := range f.p.World.FlowsAt(ci, s) {
				if err := router.Export(r); err != nil {
					fatal("export: %v", err)
				}
				res.exported++
			}
		}
		if err := router.Flush(); err != nil {
			fatal("flush: %v", err)
		}
		if f.rate > 0 {
			time.Sleep(f.rate)
		}
	}
	res.wall = time.Since(start)

	// Wind down: let tail datagrams land, stop the router, snapshot the
	// cluster counters before graceful Close inflates them with
	// teardown reshuffling, then Close each node — the graceful path
	// seals and drains the aggregator tail so its alerts reach the
	// coordinator.
	time.Sleep(300 * time.Millisecond)
	if err := router.Close(); err != nil {
		fatal("router close: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	// Trace assembly scrapes the nodes' /debug/trace rings, so it must
	// run while the fleet is still up.
	if f.traceN > 0 {
		res.timelines = fetchTimelines(srv.Addr())
	}
	for id, n := range live {
		st := n.Stats()
		res.migratedIn += st.MigrationsIn
		res.migratedOut += st.MigrationsOut
		res.forwarded += st.StepsForwarded
		res.dropped += st.StepsDropped
		res.pauseTotal += st.MigrationPauseTotal
		if st.MigrationPauseMax > res.pauseMax {
			res.pauseMax = st.MigrationPauseMax
		}
		if ds := n.Engine().Stats().DeadShards; ds != 0 {
			fatal("node %s finished with %d dead shards", id, ds)
		}
	}
	for _, n := range live {
		if err := n.Close(); err != nil {
			fatal("node close: %v", err)
		}
	}

	// Cluster-wide detections from the deduped fan-in: the first alert
	// inside each episode's anomalous window.
	custIdx := map[string]int{}
	for i := range f.p.World.Customers {
		custIdx[f.p.World.Customers[i].Addr.String()] = i
	}
	alerts := coord.Alerts()
	srv.Close()
	coord.Close()
	for i, ep := range f.eps {
		best := -1
		for _, a := range alerts {
			ci, ok := custIdx[a.Customer]
			if !ok || ci != ep.CustomerIdx || a.Type != int(ep.Type) {
				continue
			}
			s := int(a.At.Sub(t0) / stepDur)
			if s < ep.AnomStart || s >= ep.StreamEnd {
				continue
			}
			if best < 0 || s < best {
				best = s
			}
		}
		res.detect[i] = best
	}
	return res
}

// compare evaluates one fleet run's per-episode detection steps against
// the baseline, excluding episodes that touch a fleet-event settle
// window.
func (f *fleet) compare(base, run *runResult, settle, driftEnv int) parity {
	inWindow := func(step int) bool {
		for _, e := range run.eventSteps {
			if step >= e && step < e+settle {
				return true
			}
		}
		return false
	}
	var par parity
	for i, ep := range f.eps {
		bs, fs := base.detect[i], run.detect[i]
		if bs < 0 {
			continue // the baseline itself never detected: nothing to compare
		}
		if inWindow(ep.AnomStart) || inWindow(bs) || (fs >= 0 && inWindow(fs)) {
			par.excluded++
			continue
		}
		par.compared++
		if fs < 0 {
			par.violations = append(par.violations,
				fmt.Sprintf("episode %d (customer %d %s): fleet never detected (baseline step %d)",
					i, ep.CustomerIdx, ep.Type, bs))
			continue
		}
		d := fs - bs
		if d < 0 {
			d = -d
		}
		if d > par.maxAbsDrift {
			par.maxAbsDrift = d
		}
		if d > driftEnv {
			par.violations = append(par.violations,
				fmt.Sprintf("episode %d (customer %d %s): drift %d steps exceeds %d (baseline %d, fleet %d)",
					i, ep.CustomerIdx, ep.Type, d, driftEnv, bs, fs))
		}
	}
	return par
}

// pickTraceRate halves the requested sampling rate until at least two
// matched-episode customers are sampled (or the rate bottoms out at 1,
// sampling everyone), so the tiny bench worlds reliably produce
// assembled timelines and a fan-in span.
func (f *fleet) pickTraceRate(n int) int {
	for ; n > 1; n /= 2 {
		s := xatu.NewTraceSampler(n)
		sampled := 0
		for _, ep := range f.eps {
			if s.Sampled(f.p.World.Customers[ep.CustomerIdx].Addr) {
				sampled++
			}
		}
		if sampled >= 2 {
			return n
		}
	}
	return 1
}

// fetchTimelines pulls the coordinator's assembled cross-node trace
// timelines.
func fetchTimelines(coordAddr string) []wireTimeline {
	resp, err := http.Get("http://" + coordAddr + "/v1/traces")
	if err != nil {
		fatal("fetching /v1/traces: %v", err)
	}
	defer resp.Body.Close()
	var doc wireTraces
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		fatal("decoding /v1/traces: %v", err)
	}
	return doc.Timelines
}

// checkTraces asserts the 2-node run produced (a) at least one
// assembled timeline covering the full node-side path — export through
// seal to the shard step — and (b) at least one timeline whose fan-in
// span joins spans from a second process, i.e. a genuinely cross-node
// hop chain stitched on the (customer, step) key.
func (f *fleet) checkTraces(run *runResult) []string {
	var haveChain, haveFanin bool
	for _, tl := range run.timelines {
		stages := map[string]bool{}
		nodes := map[string]bool{}
		for _, s := range tl.Spans {
			stages[s.Stage] = true
			if s.Node != "" {
				nodes[s.Node] = true
			}
		}
		if stages["export"] && stages["seal"] && stages["step"] {
			haveChain = true
		}
		if stages["fanin"] && len(nodes) >= 2 {
			haveFanin = true
		}
	}
	progress("trace: %d assembled timelines from the 2-node run (full chain %v, cross-node fan-in %v)",
		len(run.timelines), haveChain, haveFanin)
	var v []string
	if !haveChain {
		v = append(v, "trace: no assembled timeline covers export→seal→step")
	}
	if !haveFanin {
		v = append(v, "trace: no timeline joins a coordinator fan-in span with node-side spans")
	}
	return v
}

// pipeConn hands every exporter datagram straight into the ingest
// pipeline — the exporter→ingest hot path with no UDP socket or
// scheduler between the two (HandlePacket copies synchronously).
type pipeConn struct{ sink func(pkt []byte) }

func (c pipeConn) Write(p []byte) (int, error)      { c.sink(p); return len(p), nil }
func (c pipeConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (c pipeConn) Close() error                     { return nil }
func (c pipeConn) LocalAddr() net.Addr              { return pipeAddr{} }
func (c pipeConn) RemoteAddr() net.Addr             { return pipeAddr{} }
func (c pipeConn) SetDeadline(time.Time) error      { return nil }
func (c pipeConn) SetReadDeadline(time.Time) error  { return nil }
func (c pipeConn) SetWriteDeadline(time.Time) error { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// checkOverhead measures tracing overhead at the *requested* rate (the
// production configuration: an almost entirely unsampled hot path) on
// the path tracing actually touches per record: a real Exporter (per-record sampling probe + trailer stamping)
// feeding a real ingest pipeline (trailer parse, origin recording, seal
// spans) through an in-process conn. A full unpaced fleet replay is far
// too noisy for a 5% assert (drive throughput swings 2-3x run to run on
// a loaded host); this is the controlled measurement, interleaved
// off/on back-to-back pairs in ABBA order with GC fences, gated on the
// median of the per-pair on/off ratios.
func (f *fleet) checkOverhead(requested int) []string {
	world := f.cfg.World
	stab, total := f.p.StabEnd, world.Steps()

	measure := func(traceN int) float64 {
		var tracer *xatu.TraceRecorder
		if traceN > 0 {
			tracer = xatu.NewTraceRecorder("bench", xatu.NewTraceSampler(traceN), 0)
		}
		pipe, err := xatu.NewIngestPipeline(xatu.IngestConfig{
			DecodeWorkers: 1,
			AggWorkers:    1,
			Step:          world.Step,
			Lateness:      2 * world.Step,
			Extractor:     f.p.Extractor(nil, nil),
			OnStep:        func(netip.Addr, time.Time, []float64, []xatu.Record) {},
			Trace:         tracer,
		})
		if err != nil {
			fatal("overhead pipeline: %v", err)
		}
		exp, err := xatu.NewExporterWithConfig(xatu.ExporterConfig{
			Dial: func() (net.Conn, error) {
				return pipeConn{sink: func(pkt []byte) { pipe.HandlePacket("bench", pkt) }}, nil
			},
			BootTime:    world.TimeOf(0).Add(-time.Minute),
			TraceSample: traceN,
		})
		if err != nil {
			fatal("overhead exporter: %v", err)
		}
		var exported uint64
		start := time.Now()
		const passes = 3
		for pass := 0; pass < passes; pass++ {
			// Shift each replay pass past the previous one so record event
			// time stays monotone and the aggregator does real seal work
			// every pass.
			shift := time.Duration(pass*(total-stab)) * world.Step
			for s := stab; s < total; s++ {
				for ci := range f.p.World.Customers {
					for _, r := range f.p.World.FlowsAt(ci, s) {
						r.Start = r.Start.Add(shift)
						r.End = r.End.Add(shift)
						if err := exp.Export(r); err != nil {
							fatal("overhead export: %v", err)
						}
						exported++
					}
				}
			}
		}
		if err := exp.Close(); err != nil {
			fatal("overhead exporter close: %v", err)
		}
		if err := pipe.Close(); err != nil {
			fatal("overhead pipeline close: %v", err)
		}
		return float64(exported) / time.Since(start).Seconds()
	}

	progress("overhead: exporter→ingest hot path, tracing off vs 1/%d, median of 7 paired ratios", requested)
	measure(0) // warmup: page in code and steady-state the worker goroutines
	sample := func(traceN int) float64 {
		runtime.GC() // settle collector debt outside the timed window
		return measure(traceN)
	}
	// Host throughput drifts slowly (thermal, cache, co-tenant load), so a
	// ratio of best-of-N maxima is itself noisy. Instead take the on/off
	// ratio *within* each back-to-back pair — drift cancels inside a pair —
	// alternating which side runs first (ABBA), and gate on the median
	// ratio, which shrugs off a single scheduler hiccup.
	ratios := make([]float64, 0, 7)
	off, on := 0.0, 0.0
	for i := 0; i < 7; i++ {
		var o, n float64
		if i%2 == 0 {
			o = sample(0)
			n = sample(requested)
		} else {
			n = sample(requested)
			o = sample(0)
		}
		if o > off {
			off = o
		}
		if n > on {
			on = n
		}
		if o > 0 {
			ratios = append(ratios, n/o)
		}
	}
	sort.Float64s(ratios)
	ratio := 0.0
	if len(ratios) > 0 {
		ratio = ratios[len(ratios)/2]
	}
	fmt.Printf("BenchmarkFleetTraceOverhead 1 1 ns/op %.1f records/sec %.4f on-off-ratio\n", on, ratio)
	progress("overhead: off %.0f records/s, on %.0f records/s, median pair ratio %.4f", off, on, ratio)
	if ratio < 0.95 {
		return []string{fmt.Sprintf("trace: overhead median pair ratio %.4f < 0.95 (off %.0f rec/s, on %.0f rec/s)", ratio, off, on)}
	}
	return nil
}

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-fleet: "+format+"\n", args...)
	os.Exit(1)
}
