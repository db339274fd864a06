// Command xatu-soak is the self-healing acceptance harness: it trains a
// model in-process, replays the simulated world's test window through the
// real serving path — NetFlow v5 exporter → chaos-wrapped UDP socket →
// a standalone serving node (parallel ingest pipeline → supervised
// sharded engine), all in event-time mode — under a phased chaos
// schedule (loss/dup/reorder ramps, injected
// shard panics, a mid-run incremental checkpoint/restore, a forced
// degradation window), and compares per-episode detection delay against a
// fault-free run of the identical path. Results land in BENCH_soak.json;
// -assert turns the acceptance envelope into the exit code.
//
//	xatu-soak -days 10 -out BENCH_soak.json -assert
//	xatu-soak -smoke -assert          # CI: 2-day world, 1 panic, 1 ramp
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/netip"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/xatu-go/xatu"
)

func main() {
	var (
		days   = flag.Int("days", 10, "simulated world length")
		seed   = flag.Int64("seed", 7, "world seed")
		epochs = flag.Int("epochs", 8, "training epochs")
		shards = flag.Int("shards", 2, "engine shards")
		rate   = flag.Duration("rate", time.Millisecond, "pacing delay per simulated step")
		wal    = flag.Int("wal", 4096, "per-shard WAL capacity (bounds replay after a panic)")
		ckptI  = flag.Duration("ckpt-interval", 250*time.Millisecond, "background snapshot interval")
		settle = flag.Int("settle", 30, "recovery window after a fault, in steps, excluded from the parity assert")
		out    = flag.String("out", "BENCH_soak.json", "result file")
		smoke  = flag.Bool("smoke", false, "cut-down CI soak: 2-day world, one chaos ramp, one injected panic")
		assert = flag.Bool("assert", false, "exit non-zero unless the acceptance envelope holds")
		drift  = flag.Int("drift", 5, "detection-delay parity envelope, in steps")
	)
	flag.Parse()
	if *smoke {
		*days, *epochs = 2, 4
	}

	fmt.Printf("training: %d-day world, seed %d, %d epochs\n", *days, *seed, *epochs)
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
	thr := 1 - sys.Threshold
	eps := p.MatchedEpisodes(p.StabEnd, cfg.World.Steps())
	fmt.Printf("test window: steps [%d, %d), %d matched episodes, survival threshold %.4f\n",
		p.StabEnd, cfg.World.Steps(), len(eps), thr)

	sk := &soak{
		p: p, ml: ml, cfg: cfg, thr: thr, eps: eps,
		shards: *shards, rate: *rate, wal: *wal, ckptI: *ckptI,
	}

	fmt.Println("fault-free baseline run")
	clean := sk.run(cleanSchedule())
	sched := fullSchedule()
	if *smoke {
		sched = smokeSchedule()
	}
	fmt.Println("chaos run")
	chaos := sk.run(sched)

	rep := buildReport(sk, clean, chaos, *settle, *drift)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal("%v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote %s\n", *out)
	fmt.Printf("chaos: %d injected panics, %d restarts, %d WAL replayed, %d lost, final health %s\n",
		rep.Faults.InjectedPanics, rep.Faults.Restarts, rep.Faults.WALReplayed, rep.Faults.Lost, rep.Health.FinalState)
	fmt.Printf("parity: %d/%d episodes compared, max |drift| %d steps (envelope %d)\n",
		rep.Detection.Compared, rep.Detection.Episodes, rep.Detection.MaxAbsDrift, *drift)
	fmt.Printf("flight: %d ring events, %d incident dumps", rep.Flight.Events, len(rep.Flight.Dumps))
	for _, d := range rep.Flight.Dumps {
		fmt.Printf(" [%s]", d.Trigger)
	}
	fmt.Println()

	if *assert {
		if msgs := rep.violations(*drift); len(msgs) > 0 {
			for _, m := range msgs {
				fmt.Fprintf(os.Stderr, "xatu-soak: ASSERT FAILED: %s\n", m)
			}
			os.Exit(1)
		}
		fmt.Println("acceptance envelope holds")
	}
}

// soak carries the trained context shared by both runs.
type soak struct {
	p      *xatu.Pipeline
	ml     *xatu.MLContext
	cfg    xatu.PipelineConfig
	thr    float64
	eps    []episodeRef
	shards int
	rate   time.Duration
	wal    int
	ckptI  time.Duration
}

type episodeRef = xatu.Episode

// phaseChange is one scheduled event at a fraction of the test window:
// new chaos rates, a fault action, or both.
type phaseChange struct {
	Frac   float64 `json:"frac"`
	Name   string  `json:"name,omitempty"`
	Rates  *rates  `json:"rates,omitempty"`
	Action string  `json:"action,omitempty"` // panic-all | panic-0 | ckpt-restore | force-degrade | auto-health
}

type rates struct {
	Drop    float64 `json:"drop"`
	Dup     float64 `json:"dup"`
	Reorder float64 `json:"reorder"`
}

func cleanSchedule() []phaseChange {
	return []phaseChange{{Frac: 0, Name: "clean", Rates: &rates{}}}
}

// fullSchedule is the phased chaos plan: fault rates ramp up, then every
// shard is panicked, a checkpoint/restore cycles mid-run, a forced
// degradation window sheds traces, and the tail ramps back to clean so
// hysteretic recovery is observable.
func fullSchedule() []phaseChange {
	return []phaseChange{
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
func smokeSchedule() []phaseChange {
	return []phaseChange{
		{Frac: 0.00, Name: "clean", Rates: &rates{}},
		{Frac: 0.30, Name: "loss-ramp", Rates: &rates{Drop: 0.10}},
		{Frac: 0.60, Name: "recovery", Rates: &rates{}, Action: "panic-0"},
		{Frac: 0.70, Action: "force-degrade"},
		{Frac: 0.75, Action: "auto-health"},
	}
}

// runResult is everything one pass through the serving path produced.
type runResult struct {
	detect      map[int]int // episode index → detection step (-1 = never)
	faultSteps  []int       // step indices where a fault action fired
	panics      int
	restores    int
	wall        time.Duration
	exported    uint64
	engineStats xatu.EngineStats
	ingest      xatu.IngestStats
	chaosStats  xatu.ChaosStats
	transitions []xatu.HealthTransition
	health      string
	stepLatency latencyMS
	flightDumps []xatu.FlightDump
	flightEvs   int
}

type latencyMS struct {
	Count uint64  `json:"count"`
	P50   float64 `json:"p50_ms"`
	P90   float64 `json:"p90_ms"`
	P99   float64 `json:"p99_ms"`
	Max   float64 `json:"max_ms"`
}

// run replays the test window through exporter → chaos UDP → ingest →
// engine under the given schedule and returns per-episode detection steps
// plus every counter the report needs.
func (sk *soak) run(sched []phaseChange) runResult {
	world := sk.cfg.World
	stepDur := world.Step
	t0 := world.TimeOf(0)
	stab, total := sk.p.StabEnd, world.Steps()
	testSteps := total - stab

	// Alert fan-in: remember the first alert step per (customer, type).
	// OnAlert runs on the node's one alert pump, and Close waits for it.
	type alertKey struct {
		customer int
		atype    xatu.AttackType
		step     int
	}
	var alerts []alertKey
	custIdx := map[netip.Addr]int{}
	for i, c := range sk.p.World.Customers {
		custIdx[c.Addr] = i
	}
	// Ingest: event-time stepping over a real UDP socket into the node.
	node, err := xatu.StartClusterNode(xatu.ClusterNodeConfig{
		ID: "soak",
		Engine: xatu.EngineConfig{
			Monitor: xatu.MonitorConfig{
				Models:        sk.ml.Models.ByType,
				Default:       sk.ml.Models.Shared,
				Extractor:     sk.p.Extractor(nil, nil),
				Threshold:     sk.thr,
				MissingPolicy: xatu.MissingCarry,
			},
			Shards:             sk.shards,
			Policy:             xatu.BackpressureBlock,
			Step:               stepDur,
			WAL:                sk.wal,
			CheckpointInterval: sk.ckptI,
			Watchdog:           25 * time.Millisecond,
			RecoverTicks:       4,
		},
		DecodeWorkers: 1,
		AggWorkers:    1,
		Step:          stepDur,
		Lateness:      2 * stepDur,
		QueueDepth:    1024,
		OnAlert: func(ev xatu.AlertEvent) {
			if ci, ok := custIdx[ev.Customer]; ok {
				alerts = append(alerts, alertKey{ci, ev.Alert.Sig.Type, int(ev.At.Sub(t0) / stepDur)})
			}
		},
	})
	if err != nil {
		fatal("node: %v", err)
	}
	eng := node.Engine()

	// Exporter: event-time clock anchored before the first record, chaos
	// wrapped around the real UDP socket. Reconnects inherit the current
	// rates; SetRates retargets the live conn.
	var (
		chaosMu  sync.Mutex
		curRates xatu.ChaosConfig
		curConn  *xatu.ChaosConn
	)
	curRates.Seed = 42
	addr := node.Info().Ingest
	exp, err := xatu.NewExporterWithConfig(xatu.ExporterConfig{
		BootTime: t0.Add(-time.Minute),
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("udp", addr)
			if err != nil {
				return nil, err
			}
			chaosMu.Lock()
			defer chaosMu.Unlock()
			curConn = xatu.NewChaosConn(conn, curRates)
			return curConn, nil
		},
	})
	if err != nil {
		fatal("exporter: %v", err)
	}
	setRates := func(r *rates) {
		chaosMu.Lock()
		defer chaosMu.Unlock()
		curRates.DropRate, curRates.DupRate, curRates.ReorderRate = r.Drop, r.Dup, r.Reorder
		if curConn != nil {
			curConn.SetRates(curRates)
		}
	}

	res := runResult{detect: map[int]int{}}

	// quiesce waits for in-flight datagrams to clear the ingest mesh and
	// the engine mailboxes, so checkpoint/restore sees a settled fleet.
	quiesce := func() {
		exp.Flush()
		time.Sleep(100 * time.Millisecond)
		if err := eng.Drain(); err != nil {
			fatal("drain: %v", err)
		}
	}
	act := func(action string, step int) {
		switch action {
		case "":
			return
		case "panic-all":
			for i := 0; i < sk.shards; i++ {
				if err := eng.InjectFault(i); err != nil {
					fatal("inject: %v", err)
				}
				res.panics++
			}
		case "panic-0":
			if err := eng.InjectFault(0); err != nil {
				fatal("inject: %v", err)
			}
			res.panics++
		case "ckpt-restore":
			quiesce()
			var ckpt bytes.Buffer
			if err := eng.CheckpointIncremental(&ckpt); err != nil {
				fatal("checkpoint: %v", err)
			}
			if err := eng.Restore(&ckpt); err != nil {
				fatal("restore: %v", err)
			}
			res.restores++
		case "force-degrade":
			eng.ForceHealth(xatu.EngineDegraded, "soak drill")
		case "auto-health":
			eng.AutoHealth()
			return // not a fault: no recovery window
		default:
			fatal("unknown action %q", action)
		}
		res.faultSteps = append(res.faultSteps, step)
	}

	start := time.Now()
	next := 0
	for s := stab; s < total; s++ {
		frac := float64(s-stab) / float64(testSteps)
		for next < len(sched) && frac >= sched[next].Frac {
			pc := sched[next]
			if pc.Name != "" {
				fmt.Printf("  step %d (%.0f%%): phase %s\n", s, frac*100, pc.Name)
			}
			if pc.Rates != nil {
				setRates(pc.Rates)
			}
			act(pc.Action, s)
			next++
		}
		for ci := range sk.p.World.Customers {
			for _, r := range sk.p.World.FlowsAt(ci, s) {
				if err := exp.Export(r); err != nil {
					fatal("export: %v", err)
				}
			}
		}
		if err := exp.Flush(); err != nil {
			fatal("flush: %v", err)
		}
		if sk.rate > 0 {
			time.Sleep(sk.rate)
		}
	}
	// Wind down: let the tail datagrams land and the engine settle; Close
	// seals what remains below.
	time.Sleep(200 * time.Millisecond)
	if err := eng.Drain(); err != nil {
		fatal("drain: %v", err)
	}
	res.wall = time.Since(start)
	// Give the watchdog a few ticks to finish hysteretic recovery now
	// that the fleet is idle.
	deadline := time.Now().Add(5 * time.Second)
	for eng.HealthState() != xatu.EngineHealthy && time.Now().After(deadline) == false {
		time.Sleep(25 * time.Millisecond)
	}
	if err := node.Close(); err != nil {
		fatal("node close: %v", err)
	}

	es := exp.Stats()
	res.exported = es.Sent
	res.engineStats = eng.Stats()
	res.ingest = node.IngestStats()
	chaosMu.Lock()
	if curConn != nil {
		res.chaosStats = curConn.Stats()
	}
	chaosMu.Unlock()
	res.transitions = eng.Transitions()
	res.health = eng.HealthState().String()
	// The flight recorder is the run's black box: panics, restarts,
	// checkpoint/restore cycles, sheds and every health transition land in
	// its ring, and transitions freeze the ring into dumps the report
	// asserts on.
	res.flightDumps = node.Flight().Dumps()
	res.flightEvs = len(node.Flight().Events())
	if h := eng.StepLatency(); h != nil {
		sum := h.Summary()
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		res.stepLatency = latencyMS{Count: sum.Count, P50: ms(sum.P50), P90: ms(sum.P90), P99: ms(sum.P99), Max: ms(sum.Max)}
	}
	exp.Close()

	// First alert inside each episode's anomalous window is its detection.
	for i, ep := range sk.eps {
		res.detect[i] = -1
		best := -1
		for _, a := range alerts {
			if a.customer != ep.CustomerIdx || a.atype != ep.Type {
				continue
			}
			if a.step < ep.AnomStart || a.step >= ep.StreamEnd {
				continue
			}
			if best < 0 || a.step < best {
				best = a.step
			}
		}
		res.detect[i] = best
	}
	return res
}

// Report is the BENCH_soak.json schema.
type Report struct {
	Config struct {
		Days      int           `json:"days"`
		Seed      int64         `json:"seed"`
		Shards    int           `json:"shards"`
		StepSec   float64       `json:"step_seconds"`
		TestSteps int           `json:"test_steps"`
		Schedule  []phaseChange `json:"schedule"`
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

type episodeDelay struct {
	Episode    int    `json:"episode"`
	Customer   int    `json:"customer"`
	Type       string `json:"type"`
	AnomStart  int    `json:"anom_start"`
	CleanStep  int    `json:"clean_step"`  // -1 = baseline never detected
	ChaosStep  int    `json:"chaos_step"`  // -1 = chaos run never detected
	Drift      int    `json:"drift_steps"` // chaos - clean
	InRecovery bool   `json:"in_recovery_window"`
}

func buildReport(sk *soak, clean, chaos runResult, settle, driftEnv int) *Report {
	rep := &Report{}
	rep.Config.Days = sk.cfg.World.Days
	rep.Config.Seed = sk.cfg.World.Seed
	rep.Config.Shards = sk.shards
	rep.Config.StepSec = sk.cfg.World.Step.Seconds()
	rep.Config.TestSteps = sk.cfg.World.Steps() - sk.p.StabEnd

	rep.Throughput.RecordsExported = chaos.exported
	rep.Throughput.RecordsIngested = chaos.ingest.Records
	rep.Throughput.WallSeconds = chaos.wall.Seconds()
	if s := chaos.wall.Seconds(); s > 0 {
		rep.Throughput.RecordsPerSec = float64(chaos.ingest.Records) / s
	}
	rep.Throughput.StepLatency = chaos.stepLatency
	rep.Baseline.WallSeconds = clean.wall.Seconds()
	if s := clean.wall.Seconds(); s > 0 {
		rep.Baseline.RecordsPerSec = float64(clean.ingest.Records) / s
	}
	rep.Baseline.StepLatency = clean.stepLatency

	es := chaos.engineStats
	rep.Faults.InjectedPanics = chaos.panics
	rep.Faults.Restarts = es.Restarts
	rep.Faults.Quarantined = es.Quarantined
	rep.Faults.WALReplayed = es.WALReplayed
	rep.Faults.WALDropped = es.WALDropped
	rep.Faults.Lost = es.Lost
	rep.Faults.CheckpointRest = chaos.restores
	rep.Faults.RecoverySeconds = es.RecoveryTotal.Seconds()
	rep.Faults.DeadShards = es.DeadShards

	inRecovery := func(step int) bool {
		for _, f := range chaos.faultSteps {
			if step >= f && step < f+settle {
				return true
			}
		}
		return false
	}
	rep.Detection.Episodes = len(sk.eps)
	for i, ep := range sk.eps {
		d := episodeDelay{
			Episode: i, Customer: ep.CustomerIdx, Type: ep.Type.String(),
			AnomStart: ep.AnomStart,
			CleanStep: clean.detect[i], ChaosStep: chaos.detect[i],
		}
		d.InRecovery = inRecovery(ep.AnomStart) ||
			(d.CleanStep >= 0 && inRecovery(d.CleanStep)) ||
			(d.ChaosStep >= 0 && inRecovery(d.ChaosStep))
		if d.CleanStep >= 0 && d.ChaosStep >= 0 {
			d.Drift = d.ChaosStep - d.CleanStep
		}
		if d.CleanStep < 0 {
			// The baseline itself never detected: nothing to compare.
			rep.Detection.Delays = append(rep.Detection.Delays, d)
			continue
		}
		if d.InRecovery {
			rep.Detection.ExcludedRec++
		} else {
			rep.Detection.Compared++
			if a := abs(d.Drift); d.ChaosStep >= 0 && a > rep.Detection.MaxAbsDrift {
				rep.Detection.MaxAbsDrift = a
			}
		}
		rep.Detection.Delays = append(rep.Detection.Delays, d)
	}
	sort.Slice(rep.Detection.Delays, func(i, j int) bool {
		return rep.Detection.Delays[i].AnomStart < rep.Detection.Delays[j].AnomStart
	})

	rep.Health.FinalState = chaos.health
	rep.Health.Transitions = chaos.transitions
	rep.Flight.Events = chaos.flightEvs
	for _, d := range chaos.flightDumps {
		rep.Flight.Dumps = append(rep.Flight.Dumps, dumpRef{At: d.At, Trigger: d.Trigger, Events: len(d.Events)})
	}
	rep.Chaos = chaos.chaosStats
	rep.Ingest = chaos.ingest

	sched := fullSchedule()
	if chaos.panics == 1 {
		sched = smokeSchedule()
	}
	rep.Config.Schedule = sched
	return rep
}

// violations evaluates the acceptance envelope.
func (r *Report) violations(driftEnv int) []string {
	var v []string
	if r.Faults.Restarts != uint64(r.Faults.InjectedPanics) {
		v = append(v, fmt.Sprintf("restarts %d != injected panics %d", r.Faults.Restarts, r.Faults.InjectedPanics))
	}
	if r.Faults.DeadShards != 0 {
		v = append(v, fmt.Sprintf("%d dead shards after the soak", r.Faults.DeadShards))
	}
	if r.Health.FinalState != "healthy" {
		v = append(v, fmt.Sprintf("final health %q, want healthy", r.Health.FinalState))
	}
	// Both schedules panic a shard and force a degradation window, and
	// each must have frozen the flight ring: the black box is part of the
	// acceptance surface.
	var panicDump, degradeDump bool
	for _, d := range r.Flight.Dumps {
		switch {
		case d.Trigger == "panic":
			panicDump = true
		case strings.HasPrefix(d.Trigger, "health:"):
			degradeDump = true
		}
	}
	if !panicDump {
		v = append(v, "flight recorder has no panic-triggered dump")
	}
	if !degradeDump {
		v = append(v, "flight recorder has no health-transition dump")
	}
	for _, d := range r.Detection.Delays {
		if d.CleanStep < 0 || d.InRecovery {
			continue
		}
		if d.ChaosStep < 0 {
			v = append(v, fmt.Sprintf("episode %d (customer %d %s): chaos run never detected (baseline step %d)",
				d.Episode, d.Customer, d.Type, d.CleanStep))
			continue
		}
		if abs(d.Drift) > driftEnv {
			v = append(v, fmt.Sprintf("episode %d: drift %d steps exceeds %d", d.Episode, d.Drift, driftEnv))
		}
	}
	return v
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-soak: "+format+"\n", args...)
	os.Exit(1)
}
