// Command xatu-fleet is the serving system's acceptance harness. It
// trains a model in-process, then replays the simulated world's test
// window through a real fleet — coordinator, a table-following ingest
// router fanning NetFlow v5 over seeded chaos-wrapped UDP sockets, and
// engine nodes — while a schedule of events fires, and compares each
// matched episode's detection step, taken from the coordinator's deduped
// alert fan-in, against a baseline run of the identical path. Every
// scenario is that one run under a different schedule, judged by one
// parity rule:
//
//	xatu-fleet -smoke -assert                      # churn: 1 node, a live join at 2, join/rebalance/kill/rejoin at 4
//	xatu-fleet -smoke -assert -trace 64            # trace: 1-in-64 flow tracing on the 2-node run, plus the overhead pairs
//	xatu-fleet -soak -smoke -assert -out soak.json # soak: chaos ramps and engine drills on 1 node against a clean 1-node run
//
// The nodes serve as a deployment does, through the float32 lanes.
// `go test -bench`-style result lines go to stdout, the human summary to
// stderr. The records/sec in them is pace-limited by -rate and is not a
// capacity number.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
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
		settle  = flag.Int("settle", 30, "recovery window after a scheduled event, in steps, excluded from the parity assert")
		drift   = flag.Int("drift", 5, "detection-delay parity envelope, in steps")
		smoke   = flag.Bool("smoke", false, "cut-down CI run: 2-day world, 4 epochs, and with -soak the cut-down chaos schedule")
		assert  = flag.Bool("assert", false, "exit non-zero unless every acceptance check holds")
		traceN  = flag.Int("trace", 0, "trace scenario: run with 1-in-N flow tracing, assert assembled cross-node timelines and bounded overhead (skips the 4-node run)")
		soak    = flag.Bool("soak", false, "soak scenario: the phased chaos schedule on 1 node against a clean 1-node run")
		out     = flag.String("out", "", "with -soak, write the BENCH_soak.json report to this file")
		verbose = flag.Bool("v", false, "log cluster-layer events")
	)
	flag.Parse()
	if *smoke {
		*days, *epochs = 2, 4
	}
	if *out != "" && !*soak {
		fatal("-out writes the soak report and needs -soak")
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
		stab:    p.StabEnd,
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
	// coordinator, router, chaos sockets at zero rates, node — so parity
	// isolates what the schedule does.
	progress("run: 1 node (baseline)")
	base := fl.run("Nodes1", 1, nil)
	runs := []*runResult{base}
	var soakSched []event
	switch {
	case *soak:
		soakSched = fullSchedule()
		if *smoke {
			soakSched = smokeSchedule()
		}
		progress("run: 1 node under the chaos schedule")
		runs = append(runs, fl.run("Soak", 1, soakSched))
	default:
		progress("run: 2 nodes (node-2 joins live at 35%%)")
		runs = append(runs, fl.run("Nodes2", 1, []event{{Frac: 0.35, Name: "node-2", Action: "join"}}))
		if *traceN > 0 {
			break
		}
		progress("run: 4 nodes (join 30%%, rebalance 45%%, kill 55%%, rejoin 75%%)")
		runs = append(runs, fl.run("Nodes4", 3, []event{
			{Frac: 0.30, Name: "node-4", Action: "join"},
			{Frac: 0.45, Action: "rebalance"},
			{Frac: 0.55, Name: "node-3", Action: "kill"},
			{Frac: 0.75, Name: "node-3", Action: "rejoin"},
		}))
	}

	var violations []string
	for _, r := range runs {
		par := compare(fl.eps, base, r, *settle, *drift)
		fmt.Printf("BenchmarkFleet%s 1 %d ns/op %.1f records/sec %.2f migration-pause-ms %d max-drift-steps %d nodes\n",
			r.name, r.wall.Nanoseconds(), r.rps(), r.pauseMax.Seconds()*1000, par.maxAbsDrift, r.peak)
		progress("%s: %.0f records/s, %d/%d episodes compared (%d in settle windows), max |drift| %d, migrated in/out %d/%d, pauses max %v, %d panics → %d restarts",
			r.name, r.rps(), par.compared, len(fl.eps), par.excluded, par.maxAbsDrift,
			r.migratedIn, r.migratedOut, r.pauseMax, r.panics, r.restarts)
		if r != base {
			violations = append(violations, par.violations...)
		}
		violations = append(violations, r.checks()...)
	}

	if *traceN > 0 {
		violations = append(violations, fl.checkTraces(runs[1])...)
		violations = append(violations, fl.checkOverhead(*traceN)...)
	}
	if *soak {
		rep := fl.report(soakSched, base, runs[1], compare(fl.eps, base, runs[1], *settle, *drift))
		progress("soak: %d injected panics, %d restarts, %d WAL replayed, %d lost, final health %s, %d ring events, dumps %s",
			rep.Faults.InjectedPanics, rep.Faults.Restarts, rep.Faults.WALReplayed, rep.Faults.Lost,
			rep.Health.FinalState, rep.Flight.Events, dumpTriggers(rep.Flight.Dumps))
		if *out != "" {
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fatal("%v", err)
			}
			if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
				fatal("%v", err)
			}
			progress("wrote %s", *out)
		}
	}

	if *assert {
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintf(os.Stderr, "xatu-fleet: ASSERT FAILED: %s\n", v)
			}
			os.Exit(1)
		}
		progress("acceptance holds (drift ≤ %d steps outside %d-step settle windows)", *drift, *settle)
	}
}

// fleet carries the trained context shared by every run.
type fleet struct {
	p       *xatu.Pipeline
	ml      *xatu.MLContext
	cfg     xatu.PipelineConfig
	thr     float64
	eps     []xatu.Episode
	stab    int // first step of the test window
	shards  int
	rate    time.Duration
	traceN  int // 1-in-N flow tracing; 0 = off
	verbose bool
}

// event is one scheduled change at a fraction of the test window: new
// chaos rates for every node socket, an action, or both. Name is the
// node a membership action targets, else a phase label.
type event struct {
	Frac   float64 `json:"frac"`
	Name   string  `json:"name,omitempty"`
	Rates  *rates  `json:"rates,omitempty"`
	Action string  `json:"action,omitempty"` // join | rejoin | kill | rebalance | panic-all | panic-0 | ckpt-restore | force-degrade | auto-health
}

type rates struct {
	Drop    float64 `json:"drop"`
	Dup     float64 `json:"dup"`
	Reorder float64 `json:"reorder"`
}

// fullSchedule is the phased chaos plan: fault rates ramp up, then every
// shard is panicked, a checkpoint/restore cycles mid-run, a forced
// degradation window sheds traces, and the tail ramps back to clean so
// hysteretic recovery is observable.
func fullSchedule() []event {
	return []event{
		{Frac: 0.00, Name: "clean", Rates: &rates{}},
		{Frac: 0.20, Name: "loss", Rates: &rates{Drop: 0.10}},
		{Frac: 0.40, Name: "loss+dup+reorder", Rates: &rates{Drop: 0.10, Dup: 0.05, Reorder: 0.05}},
		{Frac: 0.60, Name: "faults", Action: "panic-all"},
		{Frac: 0.65, Action: "ckpt-restore"},
		{Frac: 0.70, Action: "force-degrade"},
		{Frac: 0.75, Action: "auto-health"},
		{Frac: 0.80, Name: "recovery", Rates: &rates{}},
	}
}

// smokeSchedule is the CI cut-down: one chaos ramp, one injected panic,
// and a forced-degradation drill (released at 75% so hysteretic recovery
// still lands on healthy) that must leave a dump in the flight recorder.
func smokeSchedule() []event {
	return []event{
		{Frac: 0.00, Name: "clean", Rates: &rates{}},
		{Frac: 0.30, Name: "loss-ramp", Rates: &rates{Drop: 0.10}},
		{Frac: 0.60, Name: "recovery", Rates: &rates{}, Action: "panic-0"},
		{Frac: 0.70, Action: "force-degrade"},
		{Frac: 0.75, Action: "auto-health"},
	}
}

// opensWindow reports whether an action disturbs serving, so episodes
// around it are excluded from parity: every action but releasing a
// forced health state. A rate change alone is what parity measures.
func opensWindow(action string) bool { return action != "" && action != "auto-health" }

// runResult is everything one pass through the fleet produced.
type runResult struct {
	name        string      // the run's result-line name
	detect      map[int]int // episode index → detection step (-1 = never)
	windows     []int       // steps where a settle window opened
	sched       []event
	peak        int    // most nodes live at once
	panics      int    // shard panics injected
	restarts    uint64 // supervised shard restarts on the nodes live at the end
	restores    int    // checkpoint/restore cycles
	wall        time.Duration
	exported    uint64
	migratedIn  uint64
	migratedOut uint64
	pauseMax    time.Duration
	chaos       xatu.ChaosStats // summed over every node socket
	nodes       []nodeResult    // the nodes live at the end
	timelines   []wireTimeline  // assembled traces (trace mode only)
}

// nodeResult is one node's engine and ingest state at the end of a run.
type nodeResult struct {
	id          string
	engine      xatu.EngineStats
	ingest      xatu.IngestStats
	health      string
	transitions []xatu.HealthTransition
	dumps       []xatu.FlightDump
	events      int
	latency     latencyMS
}

type latencyMS struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

func (r *runResult) rps() float64 {
	if s := r.wall.Seconds(); s > 0 {
		return float64(r.exported) / s
	}
	return 0
}

// checks is what a run must show of the serving system whatever its
// detections: live migration on a multi-node run, no dead shard, one
// supervised restart per injected panic, every node healthy at the end,
// and a flight-recorder dump for each panic and forced health change
// the schedule made.
func (r *runResult) checks() (v []string) {
	name := r.name
	if r.peak > 1 && r.migratedIn == 0 {
		v = append(v, fmt.Sprintf("%s: no channels were live-migrated", name))
	}
	if r.restarts != uint64(r.panics) {
		v = append(v, fmt.Sprintf("%s: restarts %d != injected panics %d", name, r.restarts, r.panics))
	}
	var panicDump, healthDump bool
	for _, nd := range r.nodes {
		if nd.engine.DeadShards != 0 {
			v = append(v, fmt.Sprintf("%s: node %s finished with %d dead shards", name, nd.id, nd.engine.DeadShards))
		}
		if nd.health != "healthy" {
			v = append(v, fmt.Sprintf("%s: node %s final health %q, want healthy", name, nd.id, nd.health))
		}
		for _, d := range nd.dumps {
			panicDump = panicDump || d.Trigger == "panic"
			healthDump = healthDump || strings.HasPrefix(d.Trigger, "health:")
		}
	}
	for _, ev := range r.sched {
		switch {
		case strings.HasPrefix(ev.Action, "panic-") && !panicDump:
			v = append(v, fmt.Sprintf("%s: flight recorder has no panic-triggered dump", name))
		case ev.Action == "force-degrade" && !healthDump:
			v = append(v, fmt.Sprintf("%s: flight recorder has no health-transition dump", name))
		}
	}
	return v
}

func (f *fleet) logf(format string, args ...any) {
	if f.verbose {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
}

// startNode starts one fleet node. Every scenario serves with the same
// engine settings: a 4096-entry WAL and 250 ms background snapshots
// bound replay after a panic, and a 25 ms watchdog with 4-tick
// hysteresis makes health drills settle within the run.
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
			Shards:             f.shards,
			Policy:             xatu.BackpressureBlock,
			Step:               world.Step,
			WAL:                4096,
			CheckpointInterval: 250 * time.Millisecond,
			Watchdog:           25 * time.Millisecond,
			RecoverTicks:       4,
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
// node-1..node-<initial>, firing the scheduled events, and returns
// cluster-wide per-episode detection steps from the coordinator's
// deduped fan-in plus every counter the checks and the report read.
func (f *fleet) run(name string, initial int, sched []event) *runResult {
	world := f.cfg.World
	t0 := world.TimeOf(0)
	stab, total := f.stab, world.Steps()

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

	// Every node socket the router dials, reconnects included, is a
	// seeded ChaosConn at the schedule's current rates; a rate change
	// retargets every live one.
	var (
		chaosMu sync.Mutex
		chaos   = xatu.ChaosConfig{Seed: 42}
		conns   []*xatu.ChaosConn
	)
	router, err := xatu.StartClusterRouter(xatu.ClusterRouterConfig{
		Coordinator: srv.Addr(),
		Refresh:     75 * time.Millisecond,
		BootTime:    t0.Add(-time.Minute),
		TraceSample: f.traceN,
		Logf:        f.logf,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("udp", addr)
			if err != nil {
				return nil, err
			}
			chaosMu.Lock()
			defer chaosMu.Unlock()
			cc := xatu.NewChaosConn(conn, chaos)
			conns = append(conns, cc)
			return cc, nil
		},
	})
	if err != nil {
		fatal("router: %v", err)
	}
	setRates := func(r *rates) {
		chaosMu.Lock()
		defer chaosMu.Unlock()
		chaos.DropRate, chaos.DupRate, chaos.ReorderRate = r.Drop, r.Dup, r.Reorder
		for _, cc := range conns {
			cc.SetRates(chaos)
		}
	}

	res := &runResult{name: name, sched: sched, peak: initial}

	// settleTables blocks the replay until the coordinator's table has
	// reached the router and every live node, so the loss around a
	// membership change is bounded by in-flight datagrams, not failover
	// wall time. Migration itself stays concurrent with the replay.
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

	act := func(ev event, step int) {
		switch ev.Action {
		case "":
		case "join", "rejoin":
			live[ev.Name] = f.startNode(ev.Name, srv.Addr())
			res.peak = max(res.peak, len(live))
		case "kill":
			n := live[ev.Name]
			delete(live, ev.Name)
			if err := n.Kill(); err != nil {
				fatal("kill %s: %v", ev.Name, err)
			}
			// The coordinator notices by heartbeat timeout; wait for the
			// shrunk table before settleTables polls node versions.
			deadline := time.Now().Add(5 * time.Second)
			for len(coord.CurrentTable().Nodes) != len(live) && time.Now().Before(deadline) {
				time.Sleep(20 * time.Millisecond)
			}
		case "rebalance":
			coord.Rebalance()
		case "panic-all", "panic-0":
			for _, n := range live {
				for i := 0; i < f.shards && (i == 0 || ev.Action == "panic-all"); i++ {
					if err := n.Engine().InjectFault(i); err != nil {
						fatal("inject: %v", err)
					}
					res.panics++
				}
			}
		case "ckpt-restore":
			// Let in-flight datagrams clear the ingest mesh and the engine
			// mailboxes, so the cycle sees settled state.
			if err := router.Flush(); err != nil {
				fatal("flush: %v", err)
			}
			time.Sleep(100 * time.Millisecond)
			for _, n := range live {
				eng := n.Engine()
				var ckpt bytes.Buffer
				if err := eng.Drain(); err != nil {
					fatal("drain: %v", err)
				}
				if err := eng.CheckpointIncremental(&ckpt); err != nil {
					fatal("checkpoint: %v", err)
				}
				if err := eng.Restore(&ckpt); err != nil {
					fatal("restore: %v", err)
				}
			}
			res.restores++
		case "force-degrade":
			for _, n := range live {
				n.Engine().ForceHealth(xatu.EngineDegraded, "soak drill")
			}
		case "auto-health":
			for _, n := range live {
				n.Engine().AutoHealth()
			}
		default:
			fatal("unknown action %q", ev.Action)
		}
		settleTables()
		if opensWindow(ev.Action) {
			res.windows = append(res.windows, step)
		}
		t := coord.CurrentTable()
		progress("  step %d (%.0f%%): %s → table v%d, %d nodes",
			step, 100*float64(step-stab)/float64(total-stab), strings.TrimSpace(ev.Name+" "+ev.Action), t.Version, len(t.Nodes))
	}

	start := time.Now()
	next := 0
	for s := stab; s < total; s++ {
		frac := float64(s-stab) / float64(total-stab)
		for next < len(sched) && frac >= sched[next].Frac {
			if r := sched[next].Rates; r != nil {
				setRates(r)
			}
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

	// Wind down: let tail datagrams land, stop the router, and assemble
	// traces while the fleet is up. Snapshot each node after a drain and
	// a bounded wait for hysteretic recovery, before graceful Close (which
	// seals the aggregator tail so its alerts reach the coordinator)
	// inflates the counters with teardown reshuffling.
	time.Sleep(300 * time.Millisecond)
	if err := router.Close(); err != nil {
		fatal("router close: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	if f.traceN > 0 {
		res.timelines = fetchTimelines(srv.Addr())
	}
	for id, n := range live {
		eng := n.Engine()
		if err := eng.Drain(); err != nil {
			fatal("drain %s: %v", id, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for eng.HealthState() != xatu.EngineHealthy && time.Now().Before(deadline) {
			time.Sleep(25 * time.Millisecond)
		}
		st := n.Stats()
		res.migratedIn += st.MigrationsIn
		res.migratedOut += st.MigrationsOut
		res.pauseMax = max(res.pauseMax, st.MigrationPauseMax)
		nd := nodeResult{
			id:          id,
			engine:      eng.Stats(),
			ingest:      n.IngestStats(),
			health:      eng.HealthState().String(),
			transitions: eng.Transitions(),
			dumps:       n.Flight().Dumps(),
			events:      len(n.Flight().Events()),
		}
		if h := eng.StepLatency(); h != nil {
			sum := h.Summary()
			ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
			nd.latency = latencyMS{Count: sum.Count, P50: ms(sum.P50), P90: ms(sum.P90), P99: ms(sum.P99), Max: ms(sum.Max)}
		}
		res.restarts += nd.engine.Restarts
		res.nodes = append(res.nodes, nd)
	}
	for _, n := range live {
		if err := n.Close(); err != nil {
			fatal("node close: %v", err)
		}
	}
	chaosMu.Lock()
	for _, cc := range conns {
		st := cc.Stats()
		res.chaos.Written += st.Written
		res.chaos.Delivered += st.Delivered
		res.chaos.Dropped += st.Dropped
		res.chaos.Duplicated += st.Duplicated
		res.chaos.Reordered += st.Reordered
	}
	chaosMu.Unlock()

	alerts := coord.Alerts()
	srv.Close()
	coord.Close()
	res.detect = f.detections(alerts)
	return res
}

// detections scans the coordinator's fan-in for each matched episode's
// first alert of the episode's type inside its anomalous window: its
// detection step, or -1.
func (f *fleet) detections(alerts []xatu.WireAlert) map[int]int {
	world := f.cfg.World
	t0 := world.TimeOf(0)
	custIdx := map[string]int{}
	for i := range f.p.World.Customers {
		custIdx[f.p.World.Customers[i].Addr.String()] = i
	}
	detect := make(map[int]int, len(f.eps))
	for i, ep := range f.eps {
		best := -1
		for _, a := range alerts {
			ci, ok := custIdx[a.Customer]
			if !ok || ci != ep.CustomerIdx || a.Type != int(ep.Type) {
				continue
			}
			s := int(a.At.Sub(t0) / world.Step)
			if s >= ep.AnomStart && s < ep.StreamEnd && (best < 0 || s < best) {
				best = s
			}
		}
		detect[i] = best
	}
	return detect
}

// episodeDelay is one episode's detection step in the baseline and in
// the run under test.
type episodeDelay struct {
	Episode    int    `json:"episode"`
	Customer   int    `json:"customer"`
	Type       string `json:"type"`
	AnomStart  int    `json:"anom_start"`
	CleanStep  int    `json:"clean_step"`  // -1 = baseline never detected
	ChaosStep  int    `json:"chaos_step"`  // -1 = the run never detected
	Drift      int    `json:"drift_steps"` // run - baseline
	InRecovery bool   `json:"in_recovery_window"`
}

// parity is one run's per-episode comparison against the baseline.
type parity struct {
	compared    int
	excluded    int
	maxAbsDrift int
	delays      []episodeDelay
	violations  []string
}

// compare is the one parity rule. An episode the baseline never
// detected is skipped; one whose onset or detection step (in either
// run) falls in a settle window after a scheduled event is excluded.
// Every other episode must be detected by the run within ±driftEnv steps
// of the baseline, and at least one episode must be compared, or parity
// shows nothing.
func compare(eps []xatu.Episode, base, run *runResult, settle, driftEnv int) parity {
	inWindow := func(step int) bool {
		for _, w := range run.windows {
			if step >= w && step < w+settle {
				return true
			}
		}
		return false
	}
	var par parity
	for i, ep := range eps {
		d := episodeDelay{
			Episode: i, Customer: ep.CustomerIdx, Type: ep.Type.String(), AnomStart: ep.AnomStart,
			CleanStep: base.detect[i], ChaosStep: run.detect[i],
		}
		if d.CleanStep >= 0 && d.ChaosStep >= 0 {
			d.Drift = d.ChaosStep - d.CleanStep
		}
		d.InRecovery = inWindow(ep.AnomStart) || (d.CleanStep >= 0 && inWindow(d.CleanStep)) ||
			(d.ChaosStep >= 0 && inWindow(d.ChaosStep))
		par.delays = append(par.delays, d)
		switch {
		case d.CleanStep < 0:
			// The baseline itself never detected: nothing to compare.
		case d.InRecovery:
			par.excluded++
		case d.ChaosStep < 0:
			par.compared++
			par.violations = append(par.violations,
				fmt.Sprintf("episode %d (customer %d %s): never detected (baseline step %d)",
					i, ep.CustomerIdx, ep.Type, d.CleanStep))
		default:
			par.compared++
			a := max(d.Drift, -d.Drift)
			par.maxAbsDrift = max(par.maxAbsDrift, a)
			if a > driftEnv {
				par.violations = append(par.violations,
					fmt.Sprintf("episode %d (customer %d %s): drift %d steps exceeds %d (baseline %d, run %d)",
						i, ep.CustomerIdx, ep.Type, a, driftEnv, d.CleanStep, d.ChaosStep))
			}
		}
	}
	if par.compared == 0 {
		par.violations = append(par.violations,
			fmt.Sprintf("no episode compared (%d matched, %d in settle windows): parity shows nothing", len(eps), par.excluded))
	}
	return par
}

// Report is the BENCH_soak.json schema.
type Report struct {
	Config struct {
		Days      int     `json:"days"`
		Seed      int64   `json:"seed"`
		Shards    int     `json:"shards"`
		StepSec   float64 `json:"step_seconds"`
		TestSteps int     `json:"test_steps"`
		Schedule  []event `json:"schedule"`
	} `json:"config"`
	Throughput struct {
		RecordsExported uint64    `json:"records_exported"`
		RecordsIngested uint64    `json:"records_ingested"`
		WallSeconds     float64   `json:"wall_seconds"`
		RecordsPerSec   float64   `json:"records_per_sec"`
		StepLatency     latencyMS `json:"step_latency"`
	} `json:"throughput"`
	Faults struct {
		InjectedPanics  int     `json:"injected_panics"`
		Restarts        uint64  `json:"restarts"`
		Quarantined     uint64  `json:"quarantined"`
		WALReplayed     uint64  `json:"wal_replayed"`
		WALDropped      uint64  `json:"wal_dropped"`
		Lost            uint64  `json:"lost"`
		CheckpointRest  int     `json:"checkpoint_restores"`
		RecoverySeconds float64 `json:"recovery_seconds_total"`
		DeadShards      int     `json:"dead_shards"`
	} `json:"faults"`
	Detection struct {
		Episodes    int            `json:"episodes"`
		Compared    int            `json:"compared"`
		ExcludedRec int            `json:"excluded_recovery_windows"`
		MaxAbsDrift int            `json:"max_abs_drift_steps"`
		Delays      []episodeDelay `json:"delays"`
	} `json:"detection"`
	Health struct {
		FinalState  string                  `json:"final_state"`
		Cause       string                  `json:"cause,omitempty"`
		Transitions []xatu.HealthTransition `json:"transitions"`
	} `json:"health"`
	Flight struct {
		Events int       `json:"events"`
		Dumps  []dumpRef `json:"dumps"`
	} `json:"flight"`
	Chaos    xatu.ChaosStats  `json:"chaos"`
	Ingest   xatu.IngestStats `json:"ingest"`
	Baseline struct {
		WallSeconds   float64   `json:"wall_seconds"`
		RecordsPerSec float64   `json:"records_per_sec"`
		StepLatency   latencyMS `json:"step_latency"`
	} `json:"baseline"`
}

// dumpRef summarizes one flight-recorder incident dump in the report.
type dumpRef struct {
	At      time.Time `json:"at"`
	Trigger string    `json:"trigger"`
	Events  int       `json:"events"`
}

func dumpTriggers(dumps []dumpRef) (s string) {
	for _, d := range dumps {
		s += "[" + d.Trigger + "]"
	}
	return s
}

// report builds the soak report of a 1-node chaos run against its clean
// baseline; sched is the schedule the chaos run replayed.
func (f *fleet) report(sched []event, clean, chaos *runResult, par parity) *Report {
	rep := &Report{}
	rep.Config.Days = f.cfg.World.Days
	rep.Config.Seed = f.cfg.World.Seed
	rep.Config.Shards = f.shards
	rep.Config.StepSec = f.cfg.World.Step.Seconds()
	rep.Config.TestSteps = f.cfg.World.Steps() - f.stab
	rep.Config.Schedule = sched

	cn, ch := clean.nodes[0], chaos.nodes[0]
	rep.Throughput.RecordsExported = chaos.exported
	rep.Throughput.RecordsIngested = ch.ingest.Records
	rep.Throughput.WallSeconds = chaos.wall.Seconds()
	rep.Throughput.RecordsPerSec = float64(ch.ingest.Records) / chaos.wall.Seconds()
	rep.Throughput.StepLatency = ch.latency
	rep.Baseline.WallSeconds = clean.wall.Seconds()
	rep.Baseline.RecordsPerSec = float64(cn.ingest.Records) / clean.wall.Seconds()
	rep.Baseline.StepLatency = cn.latency

	es := ch.engine
	rep.Faults.InjectedPanics = chaos.panics
	rep.Faults.Restarts = es.Restarts
	rep.Faults.Quarantined = es.Quarantined
	rep.Faults.WALReplayed = es.WALReplayed
	rep.Faults.WALDropped = es.WALDropped
	rep.Faults.Lost = es.Lost
	rep.Faults.CheckpointRest = chaos.restores
	rep.Faults.RecoverySeconds = es.RecoveryTotal.Seconds()
	rep.Faults.DeadShards = es.DeadShards

	rep.Detection.Episodes = len(par.delays)
	rep.Detection.Compared = par.compared
	rep.Detection.ExcludedRec = par.excluded
	rep.Detection.MaxAbsDrift = par.maxAbsDrift
	rep.Detection.Delays = append([]episodeDelay(nil), par.delays...)
	sort.SliceStable(rep.Detection.Delays, func(i, j int) bool {
		return rep.Detection.Delays[i].AnomStart < rep.Detection.Delays[j].AnomStart
	})

	rep.Health.FinalState = ch.health
	rep.Health.Transitions = ch.transitions
	rep.Flight.Events = ch.events
	for _, d := range ch.dumps {
		rep.Flight.Dumps = append(rep.Flight.Dumps, dumpRef{At: d.At, Trigger: d.Trigger, Events: len(d.Events)})
	}
	rep.Chaos = chaos.chaos
	rep.Ingest = ch.ingest
	return rep
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
	var doc struct {
		Timelines []wireTimeline `json:"timelines"`
	}
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

// checkOverhead measures tracing overhead at the *requested* rate (the
// production configuration: an almost entirely unsampled hot path) on
// the path tracing touches per record: a real Exporter (sampling probe,
// trailer stamping) feeding a real ingest pipeline (trailer parse,
// origin recording, seal spans) through a fault-free in-process chaos
// pipe. A fleet replay is far too noisy for a 5% assert, so this is the
// controlled measurement: off/on back-to-back pairs with GC fences.
func (f *fleet) checkOverhead(requested int) []string {
	world := f.cfg.World
	stab, total := f.stab, world.Steps()

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
			Dial:        func() (net.Conn, error) { return xatu.NewChaosPipe(pipe, "bench", xatu.ChaosConfig{}), nil },
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
	// Host throughput drifts, so take the on/off ratio *within* each pair,
	// where drift cancels, alternate which side runs first (ABBA), and gate
	// on the median ratio, which shrugs off a single scheduler hiccup.
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
		off, on = max(off, o), max(on, n)
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
