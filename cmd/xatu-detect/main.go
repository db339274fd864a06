// Command xatu-detect runs the online detection loop of §2.6: it listens
// for NetFlow v5 datagrams, aggregates flows per customer per step, feeds
// them through a sharded detection Engine (trained models + 273-feature
// extractor, one single-threaded Monitor per shard) and prints alerts.
// Pair it with ispgen:
//
//	xatu-detect -models ./models -listen 127.0.0.1:2055 -step 5s -shards 4 &
//	ispgen -export 127.0.0.1:2055 -from 0 -to 720 -rate 10ms
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/xatu-go/xatu"
	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/routing"
	"github.com/xatu-go/xatu/internal/simnet"
)

func main() {
	var (
		modelDir = flag.String("models", "models", "directory written by xatu-train")
		listen   = flag.String("listen", "127.0.0.1:2055", "NetFlow listen address")
		step     = flag.Duration("step", 5*time.Second, "aggregation step (wall clock)")
		thFlag   = flag.Float64("threshold", 0, "survival threshold override (0 = use saved)")
		replay   = flag.String("replay", "", "replay a flow journal file instead of listening on UDP")
		simStep  = flag.Duration("sim-step", 2*time.Minute, "journal replay: step size of the recorded flows")
		ckpt     = flag.String("checkpoint", "", "detector state file: restored on startup if present, saved periodically and on shutdown")
		ckptIval = flag.Duration("checkpoint-interval", time.Minute, "how often to save -checkpoint")
		ckptInc  = flag.Bool("checkpoint-incremental", true, "periodic saves read the supervisor's background per-shard snapshots instead of stalling the fleet at a barrier (shutdown still writes a barrier checkpoint)")
		shards   = flag.Int("shards", runtime.GOMAXPROCS(0), "detection shards (single-threaded monitors); customers are hash-partitioned across them")
		queue    = flag.Int("queue", 1024, "per-shard mailbox capacity (live ingest sheds oldest on overflow; replay blocks)")
		telAddr  = flag.String("telemetry-addr", "", "serve Prometheus /metrics, /healthz, /debug/alerts and pprof on this address (empty = disabled)")
		ingestW  = flag.Int("ingest-workers", 0, "run the parallel allocation-lean ingest pipeline with this many decode and aggregation workers; steps are sealed by record event time with -lateness allowance (0 = legacy collector with wall-clock stepping)")
		lateness = flag.Duration("lateness", 2*time.Minute, "ingest pipeline: how far out of order records may arrive before a step seals without them")
	)
	flag.Parse()

	models, def, err := loadModels(*modelDir)
	if err != nil {
		fatal("%v", err)
	}
	threshold := *thFlag
	if threshold == 0 {
		threshold, err = loadThreshold(filepath.Join(*modelDir, "threshold"))
		if err != nil {
			fatal("%v", err)
		}
	}

	// Live ingest sheds oldest rather than blocking the collector drain
	// loop; a journal replay has no liveness constraint, so it blocks and
	// loses nothing.
	// engineStep tells the engine how much traffic time one Submit covers,
	// which the CDetOnly fallback needs to turn byte counts into rates.
	policy, engineStep := xatu.BackpressureShedOldest, *step
	if *replay != "" {
		policy, engineStep = xatu.BackpressureBlock, *simStep
	}
	var reg *xatu.TelemetryRegistry
	if *telAddr != "" {
		reg = xatu.NewTelemetryRegistry()
	}
	eng, err := xatu.NewEngine(xatu.EngineConfig{
		Monitor: xatu.MonitorConfig{
			Models: models, Default: def, Extractor: loadExtractor(*modelDir),
			Threshold: threshold, RecordHistory: true,
		},
		Shards:    *shards,
		Queue:     *queue,
		Policy:    policy,
		Step:      engineStep,
		Telemetry: reg,
	})
	if err != nil {
		fatal("%v", err)
	}
	var tsrv *xatu.TelemetryServer
	if reg != nil {
		tsrv, err = xatu.NewTelemetryServer(*telAddr, reg, func() xatu.TelemetryHealth {
			h := eng.Health()
			return xatu.TelemetryHealth{OK: h.OK, Detail: h}
		})
		if err != nil {
			fatal("telemetry: %v", err)
		}
		defer tsrv.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", tsrv.Addr())
	}

	if *ckpt != "" {
		if f, err := os.Open(*ckpt); err == nil {
			err := eng.Restore(f)
			f.Close()
			if err != nil {
				fatal("restoring %s: %v", *ckpt, err)
			}
			fmt.Printf("restored detector state from %s\n", *ckpt)
		} else if !os.IsNotExist(err) {
			fatal("%v", err)
		}
	}

	// All alerts, live or replayed, fan into one channel.
	alertsDone := make(chan struct{})
	go func() {
		defer close(alertsDone)
		for ev := range eng.Alerts() {
			fmt.Printf("%s ALERT %s victim=%v proto=%v srcport=%d shard=%d\n",
				ev.At.Format(time.RFC3339), ev.Alert.Sig.Type, ev.Alert.Sig.Victim,
				ev.Alert.Sig.Proto, ev.Alert.Sig.SrcPort, ev.Shard)
			if ev.Trace != nil {
				if data, err := json.Marshal(ev.Trace); err == nil {
					fmt.Printf("  trace %s\n", data)
				}
				if tsrv != nil {
					tsrv.Alerts().Add(ev.Trace)
				}
			}
		}
	}()

	if *replay != "" {
		replayJournal(eng, *replay, *simStep)
		saveCheckpoint(eng, *ckpt, false)
		printHealthSummary(eng)
		eng.Close()
		<-alertsDone
		return
	}

	if *ingestW > 0 {
		runPipeline(eng, reg, *listen, *ingestW, *step, *lateness, *ckpt, *ckptIval, *ckptInc)
		eng.Close()
		<-alertsDone
		return
	}

	col, err := xatu.NewCollector(*listen, 65536)
	if err != nil {
		fatal("%v", err)
	}
	if reg != nil {
		col.RegisterMetrics(reg)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	go col.Run(ctx)
	fmt.Printf("listening on %s, survival threshold %.4f, step %v, %d shards (queue %d)\n",
		col.Addr(), threshold, *step, eng.Shards(), *queue)

	var (
		pending  = map[netip.Addr][]xatu.Record{}
		known    = map[netip.Addr]bool{} // customers seen at least once
		lastSave time.Time
	)
	shutdown := func() {
		st := col.FullStats()
		es := eng.Stats()
		fmt.Printf("shutting down (records=%d shed=%d lost=%d dup=%d reordered=%d bad=%d exporters=%d)\n",
			st.Records, st.Shed, st.LostRecords, st.DupPackets, st.ReorderedPackets, st.BadPackets, st.Exporters)
		fmt.Printf("engine: %d shards, steps=%d missing=%d shed=%d alerts=%d queue-hw=%d\n",
			eng.Shards(), es.Steps, es.Missing, es.Shed, es.Alerts, es.QueueHighWater)
		saveCheckpoint(eng, *ckpt, false)
		printHealthSummary(eng)
		eng.Close()
		<-alertsDone
	}
	ticker := time.NewTicker(*step)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			shutdown()
			return
		case r, ok := <-col.Records():
			if !ok {
				shutdown()
				return
			}
			pending[r.Dst] = append(pending[r.Dst], r)
		case <-ticker.C:
			now := time.Now()
			// Customers that went quiet this step still get a gap step, so
			// their detector branches keep advancing in lockstep.
			for customer := range known {
				if _, ok := pending[customer]; !ok {
					eng.ObserveMissing(customer, now)
				}
			}
			for customer, flows := range pending {
				known[customer] = true
				eng.Submit(customer, now, flows)
				delete(pending, customer)
			}
			if *ckpt != "" && now.Sub(lastSave) >= *ckptIval {
				saveCheckpoint(eng, *ckpt, *ckptInc)
				lastSave = now
			}
		}
	}
}

// runPipeline serves live ingest through the parallel allocation-lean
// pipeline: decode workers partition packets by exporter, aggregation
// workers seal per-customer steps by record event time, and sealed steps
// feed the engine's shards directly. Unlike the legacy collector loop
// there is no wall-clock ticker — step boundaries come from the records
// themselves, sealed once the watermark passes the lateness allowance.
func runPipeline(eng *xatu.Engine, reg *xatu.TelemetryRegistry, listen string, workers int, step, lateness time.Duration, ckpt string, ckptIval time.Duration, ckptInc bool) {
	pc, err := net.ListenPacket("udp", listen)
	if err != nil {
		fatal("%v", err)
	}
	pipe, err := xatu.NewIngestPipeline(xatu.IngestConfig{
		DecodeWorkers: workers,
		AggWorkers:    workers,
		Step:          step,
		Lateness:      lateness,
		Engine:        eng,
		Telemetry:     reg,
	})
	if err != nil {
		fatal("%v", err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	fmt.Printf("listening on %s, ingest pipeline with %d decode + %d aggregation workers, step %v, lateness %v\n",
		pc.LocalAddr(), workers, workers, step, lateness)

	serveDone := make(chan error, 1)
	go func() { serveDone <- pipe.Serve(ctx, pc) }()
	ticker := time.NewTicker(ckptIval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			saveCheckpoint(eng, ckpt, ckptInc)
		case err := <-serveDone:
			if err != nil {
				fmt.Fprintf(os.Stderr, "xatu-detect: serve: %v\n", err)
			}
			if cerr := pipe.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "xatu-detect: %v\n", cerr)
			}
			st := pipe.Stats()
			es := eng.Stats()
			fmt.Printf("shutting down (packets=%d records=%d steps=%d dup=%d reordered=%d lost=%d late=%d bad=%d)\n",
				st.Packets, st.Records, st.Steps, st.DupPackets, st.ReorderedPackets, st.LostRecords, st.DroppedLate, st.BadPackets)
			fmt.Printf("engine: %d shards, steps=%d missing=%d shed=%d alerts=%d queue-hw=%d\n",
				eng.Shards(), es.Steps, es.Missing, es.Shed, es.Alerts, es.QueueHighWater)
			saveCheckpoint(eng, ckpt, false)
			printHealthSummary(eng)
			return
		}
	}
}

// saveCheckpoint writes the multi-shard state atomically (tmp + rename),
// so a crash mid-save never corrupts the previous checkpoint. A barrier
// save (incremental=false) drains the fleet for a globally consistent
// cut; an incremental save reads the supervisor's background per-shard
// snapshots without stalling ingest, at the cost of each shard's state
// being up to the engine's snapshot interval old.
func saveCheckpoint(eng *xatu.Engine, path string, incremental bool) {
	if path == "" {
		return
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xatu-detect: checkpoint: %v\n", err)
		return
	}
	if incremental {
		err = eng.CheckpointIncremental(f)
	} else {
		err = eng.Checkpoint(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		fmt.Fprintf(os.Stderr, "xatu-detect: checkpoint: %v\n", err)
		return
	}
	fmt.Printf("checkpointed detector state to %s\n", path)
}

// printHealthSummary reports the supervisor's view of the run: panics
// absorbed, WAL replay and bounded loss, background snapshots, and every
// degradation transition the health machine went through.
func printHealthSummary(eng *xatu.Engine) {
	es := eng.Stats()
	if es.Restarts == 0 && es.Lost == 0 && len(eng.Transitions()) == 0 && es.Health == xatu.EngineHealthy {
		return // nothing noteworthy happened; keep shutdown output quiet
	}
	fmt.Printf("self-healing: health=%s restarts=%d quarantined=%d wal-replayed=%d wal-dropped=%d lost=%d bypassed=%d snapshots=%d recovery=%v\n",
		es.Health, es.Restarts, es.Quarantined, es.WALReplayed, es.WALDropped, es.Lost, es.Bypassed, es.Snapshots, es.RecoveryTotal)
	if es.HealthCause != "" {
		fmt.Printf("  cause: %s\n", es.HealthCause)
	}
	for _, tr := range eng.Transitions() {
		fmt.Printf("  %s: %s -> %s (%s)\n", tr.At.Format(time.RFC3339), tr.From, tr.To, tr.Cause)
	}
}

// loadExtractor builds the feature extractor from the registry files
// xatu-train exported next to the models; missing files leave the
// corresponding signal empty (with a warning) rather than failing.
func loadExtractor(dir string) *xatu.FeatureExtractor {
	ext := &xatu.FeatureExtractor{
		Blocklists: xatu.NewBlocklistRegistry(),
		History:    xatu.NewHistoryRegistry(),
		Geo:        simnet.GeoOf,
		A4Window:   72 * time.Hour,
		A5Window:   24 * time.Hour,
	}
	if f, err := os.Open(filepath.Join(dir, "blocklists.txt")); err == nil {
		if n, err := blocklist.LoadText(f, ext.Blocklists); err != nil {
			fatal("blocklists.txt: %v", err)
		} else {
			fmt.Printf("loaded %d blocklisted /24s\n", n)
		}
		f.Close()
	} else {
		fmt.Fprintln(os.Stderr, "warning: no blocklists.txt; A1 features will be empty")
	}
	table := &routing.Table{}
	if f, err := os.Open(filepath.Join(dir, "routes.txt")); err == nil {
		t, err := routing.LoadText(f)
		f.Close()
		if err != nil {
			fatal("routes.txt: %v", err)
		}
		table = t
		fmt.Printf("loaded %d routes\n", table.Len())
	} else {
		fmt.Fprintln(os.Stderr, "warning: no routes.txt; every source will look unrouted")
	}
	ext.Spoof = xatu.NewSpoofChecker(table)
	if f, err := os.Open(filepath.Join(dir, "history.snap")); err == nil {
		if err := ext.History.Load(f); err != nil {
			fatal("history.snap: %v", err)
		}
		f.Close()
		fmt.Println("loaded attack-history snapshot")
	} else {
		fmt.Fprintln(os.Stderr, "warning: no history.snap; A2/A4/A5 start cold")
	}
	return ext
}

// replayJournal streams a recorded flow journal through the engine,
// bucketing records into simulated steps by their start timestamps.
func replayJournal(eng *xatu.Engine, path string, step time.Duration) {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	jr, err := netflow.NewJournalReader(f)
	if err != nil {
		fatal("%v", err)
	}
	var (
		curStep time.Time
		pending = map[netip.Addr][]xatu.Record{}
		flushFn = func() {
			for customer, flows := range pending {
				if err := eng.Submit(customer, curStep, flows); err != nil {
					fatal("replay: %v", err)
				}
				delete(pending, customer)
			}
		}
	)
	for {
		r, err := jr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal("replay: %v", err)
		}
		bucket := r.Start.Truncate(step)
		if curStep.IsZero() {
			curStep = bucket
		}
		for bucket.After(curStep) {
			flushFn()
			curStep = curStep.Add(step)
		}
		pending[r.Dst] = append(pending[r.Dst], r)
	}
	flushFn()
	if err := eng.Drain(); err != nil {
		fatal("replay: %v", err)
	}
	fmt.Printf("replayed %d records, %d alerts across %d shards\n",
		jr.Count(), eng.Stats().Alerts, eng.Shards())
}

func loadModels(dir string) (map[xatu.AttackType]*xatu.Model, *xatu.Model, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	models := map[xatu.AttackType]*xatu.Model{}
	var def *xatu.Model
	names := map[string]xatu.AttackType{
		"udp-flood": xatu.UDPFlood, "tcp-ack": xatu.TCPACK, "tcp-syn": xatu.TCPSYN,
		"tcp-rst": xatu.TCPRST, "dns-amp": xatu.DNSAmp, "icmp-flood": xatu.ICMPFlood,
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".xatu") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, nil, err
		}
		m, err := xatu.LoadModel(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("loading %s: %w", e.Name(), err)
		}
		base := strings.TrimSuffix(e.Name(), ".xatu")
		if base == "shared" {
			def = m
		} else if at, ok := names[base]; ok {
			models[at] = m
		}
	}
	if def == nil && len(models) == 0 {
		return nil, nil, fmt.Errorf("no models found in %s (run xatu-train first)", dir)
	}
	return models, def, nil
}

func loadThreshold(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, fmt.Errorf("empty threshold file %s", path)
	}
	return strconv.ParseFloat(strings.TrimSpace(sc.Text()), 64)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-detect: "+format+"\n", args...)
	os.Exit(1)
}
