// Command xatu-detect runs the online detection loop of §2.6 as one
// serving node: it listens for NetFlow v5 datagrams, aggregates flows per
// customer per step of record event time through the ingest pipeline,
// feeds them through a sharded detection Engine (trained models +
// 273-feature extractor, one single-threaded Monitor per shard) and
// prints alerts. Its own alerts feed the A2/A4/A5 history it reads. Pair
// it with ispgen, whose exporter stamps the simulated flow times:
//
//	xatu-detect -models ./models -listen 127.0.0.1:2055 -shards 4 &
//	ispgen -export 127.0.0.1:2055 -from 0 -to 720 -rate 10ms
//
// -replay reads a flow journal (ispgen -journal) instead of the socket and
// seals its steps by the same event-time rule. With -coordinator the
// node joins a fleet run by xatu-coord and serves its slice of the
// customer space; without it, it serves every customer alone:
//
//	xatu-coord -listen 127.0.0.1:7070 -shards 4 &
//	xatu-detect -id node-1 -coordinator 127.0.0.1:7070 -models ./models -listen 127.0.0.1:0 &
//	xatu-detect -id node-2 -coordinator 127.0.0.1:7070 -models ./models -listen 127.0.0.1:0 &
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"github.com/xatu-go/xatu"
)

func main() {
	var (
		modelDir = flag.String("models", "models", "directory written by xatu-train")
		thFlag   = flag.Float64("threshold", 0, "survival threshold override (0 = use saved)")
		listen   = flag.String("listen", "127.0.0.1:2055", "NetFlow v5 listen address (advertised to the fleet's ingest tier)")
		replay   = flag.String("replay", "", "replay a flow journal file instead of serving live traffic, then exit")
		step     = flag.Duration("step", 2*time.Minute, "aggregation step in record event time (xatu-train trains at 2m)")
		lateness = flag.Duration("lateness", 2*time.Minute, "how far out of order records may arrive before a step seals without them")
		shards   = flag.Int("shards", runtime.GOMAXPROCS(0), "detection shards (single-threaded monitors; in a fleet, must match the coordinator's -shards)")
		queue    = flag.Int("queue", 1024, "per-shard mailbox capacity, and 256× it in queued flow records (live ingest sheds oldest on overflow; replay blocks)")
		workers  = flag.Int("workers", 0, "ingest decode and aggregation workers (0 = GOMAXPROCS)")
		ckpt     = flag.String("checkpoint", "", "detector state file: restored on startup if present, saved periodically and on shutdown")
		ckptIval = flag.Duration("checkpoint-interval", time.Minute, "how often to save -checkpoint from the background snapshots")
		telAddr  = flag.String("telemetry-addr", "127.0.0.1:0", "Prometheus /metrics, /healthz, /debug/alerts and pprof listen address (the coordinator federates it)")
		coord    = flag.String("coordinator", "", "coordinator control-plane address (host:port) of the fleet to join; empty = serve every customer alone")
		id       = flag.String("id", "", "stable node identity, required with -coordinator (rejoining under the same ID reclaims the same partition)")
		api      = flag.String("api", "127.0.0.1:0", "cluster API listen address with -coordinator (table pushes, forwarded steps, migration segments); a standalone node opens none")
		traceN   = flag.Int("trace", 0, "deterministic 1-in-N flow tracing (0 = off; must match the coordinator's and router's -trace)")
	)
	flag.Parse()
	// The cluster layer speaks plain HTTP and prepends the scheme itself;
	// accept a pasted URL anyway.
	*coord = strings.TrimSuffix(strings.TrimPrefix(*coord, "http://"), "/")
	if *id == "" {
		if *coord != "" {
			fatal("-id is required with -coordinator")
		}
		*id = "local"
	}

	mcfg, err := xatu.LoadMonitorConfig(*modelDir, *thFlag, logf)
	if err != nil {
		fatal("%v", err)
	}
	mcfg.RecordHistory = true

	// Live ingest sheds oldest rather than stalling the socket's read
	// loop; a journal replay has no liveness constraint, so it blocks and
	// loses nothing.
	policy := xatu.BackpressureShedOldest
	if *replay != "" {
		policy, *listen = xatu.BackpressureBlock, "127.0.0.1:0"
	}
	node, err := xatu.StartClusterNode(xatu.ClusterNodeConfig{
		ID:            *id,
		Coordinator:   *coord,
		APIAddr:       *api,
		IngestAddr:    *listen,
		TelemetryAddr: *telAddr,
		Engine: xatu.EngineConfig{
			Monitor: mcfg,
			Shards:  *shards,
			Queue:   *queue,
			Policy:  policy,
			Step:    *step,
		},
		DecodeWorkers:   *workers,
		AggWorkers:      *workers,
		Step:            *step,
		Lateness:        *lateness,
		TraceSample:     *traceN,
		Checkpoint:      *ckpt,
		CheckpointEvery: *ckptIval,
		GapFill:         true,
		OnAlert:         printAlert,
		Logf:            logf,
	})
	if err != nil {
		fatal("%v", err)
	}
	info, eng := node.Info(), node.Engine()
	if info.API != "" {
		fmt.Printf("node %s: cluster api %s\n", info.ID, info.API)
	}
	fmt.Printf("node %s: telemetry on http://%s/metrics\n", info.ID, info.Metrics)
	if err := node.WaitReady(10 * time.Second); err != nil && *replay != "" {
		fatal("%v", err)
	} else if err != nil {
		logf("%v (still retrying via heartbeat)", err)
	}

	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			fatal("%v", err)
		}
		records, late, err := node.Replay(f)
		f.Close()
		if err != nil {
			fatal("replay: %v", err)
		}
		fmt.Printf("replayed %d records (%d late), %d alerts across %d shards\n",
			records, late, eng.Stats().Alerts, eng.Shards())
	} else {
		fmt.Printf("listening on %s, survival threshold %.4f, step %v, lateness %v, %d shards\n",
			info.Ingest, mcfg.Threshold, *step, *lateness, eng.Shards())
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		<-ctx.Done()
		cancel()
	}
	// Close seals the open steps into the engine, drains it and writes
	// the barrier checkpoint.
	if err := node.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "xatu-detect: %v\n", err)
	}
	st, es, cs := node.IngestStats(), eng.Stats(), node.Stats()
	fmt.Printf("shutting down (packets=%d records=%d steps=%d dup=%d reordered=%d lost=%d late=%d bad=%d)\n",
		st.Packets, st.Records, st.Steps, st.DupPackets, st.ReorderedPackets, st.LostRecords, st.DroppedLate, st.BadPackets)
	fmt.Printf("engine: %d shards, steps=%d missing=%d shed=%d alerts=%d queue-hw=%d records-hw=%d\n",
		eng.Shards(), es.Steps, es.Missing, es.Shed, es.Alerts, es.QueueHighWater, es.RecordsHighWater)
	fmt.Printf("cluster: table v%d, migrated-out=%d migrated-in=%d forwarded=%d dropped=%d\n",
		cs.TableVersion, cs.MigrationsOut, cs.MigrationsIn, cs.StepsForwarded, cs.StepsDropped)
	printHealthSummary(eng)
}

func printAlert(ev xatu.AlertEvent) {
	fmt.Printf("%s ALERT %s victim=%v proto=%v srcport=%d shard=%d\n",
		ev.At.Format(time.RFC3339), ev.Alert.Sig.Type, ev.Alert.Sig.Victim,
		ev.Alert.Sig.Proto, ev.Alert.Sig.SrcPort, ev.Shard)
	if ev.Trace != nil {
		if data, err := json.Marshal(ev.Trace); err == nil {
			fmt.Printf("  trace %s\n", data)
		}
	}
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

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-detect: "+format+"\n", args...)
}

func fatal(format string, args ...any) {
	logf(format, args...)
	os.Exit(1)
}
