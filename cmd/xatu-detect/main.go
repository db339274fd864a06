// Command xatu-detect runs the online detection loop of §2.6: it listens
// for NetFlow v5 datagrams, aggregates flows per customer per step of
// record event time through the ingest pipeline, feeds them through a
// sharded detection Engine (trained models + 273-feature extractor, one
// single-threaded Monitor per shard) and prints alerts. Pair it with ispgen,
// whose exporter stamps the simulated flow times:
//
//	xatu-detect -models ./models -listen 127.0.0.1:2055 -shards 4 &
//	ispgen -export 127.0.0.1:2055 -from 0 -to 720 -rate 10ms
//
// -replay reads a flow journal (ispgen -journal) instead of the socket and
// seals its steps by the same event-time rule.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/netip"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"time"

	"github.com/xatu-go/xatu"
	"github.com/xatu-go/xatu/internal/netflow"
)

func main() {
	var (
		modelDir = flag.String("models", "models", "directory written by xatu-train")
		listen   = flag.String("listen", "127.0.0.1:2055", "NetFlow listen address")
		step     = flag.Duration("step", 2*time.Minute, "aggregation step in record event time (xatu-train trains at 2m)")
		lateness = flag.Duration("lateness", 2*time.Minute, "how far out of order records may arrive before a step seals without them")
		thFlag   = flag.Float64("threshold", 0, "survival threshold override (0 = use saved)")
		replay   = flag.String("replay", "", "replay a flow journal file instead of listening on UDP")
		ckpt     = flag.String("checkpoint", "", "detector state file: restored on startup if present, saved periodically and on shutdown")
		ckptIval = flag.Duration("checkpoint-interval", time.Minute, "how often to save -checkpoint")
		ckptInc  = flag.Bool("checkpoint-incremental", true, "periodic saves read the supervisor's background per-shard snapshots instead of stalling the fleet at a barrier (shutdown still writes a barrier checkpoint)")
		shards   = flag.Int("shards", runtime.GOMAXPROCS(0), "detection shards (single-threaded monitors); customers are hash-partitioned across them")
		queue    = flag.Int("queue", 1024, "per-shard mailbox capacity (live ingest sheds oldest on overflow; replay blocks)")
		telAddr  = flag.String("telemetry-addr", "", "serve Prometheus /metrics, /healthz, /debug/alerts and pprof on this address (empty = disabled)")
	)
	flag.Parse()

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
		policy = xatu.BackpressureBlock
	}
	var reg *xatu.TelemetryRegistry
	if *telAddr != "" {
		reg = xatu.NewTelemetryRegistry()
	}
	eng, err := xatu.NewEngine(xatu.EngineConfig{
		Monitor:   mcfg,
		Shards:    *shards,
		Queue:     *queue,
		Policy:    policy,
		Step:      *step,
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

	sink := newGapFiller(eng, *step)
	if *replay != "" {
		replayJournal(eng, sink, *replay, *step, *lateness)
	} else {
		serve(eng, sink, reg, *listen, mcfg.Threshold, *step, *lateness, *ckpt, *ckptIval, *ckptInc)
	}
	saveCheckpoint(eng, *ckpt, false)
	printHealthSummary(eng)
	eng.Close()
	<-alertsDone
}

// stepSink is the part of the engine a gapFiller drives.
type stepSink interface {
	Submit(customer netip.Addr, at time.Time, flows []xatu.Record) error
	ObserveMissing(customer netip.Addr, at time.Time) error
}

// maxGapSteps bounds the missing steps reported for one return: a corrupt
// far-future record time must not queue millions of them on a shard. At
// 2-minute steps it covers 5.7 days; a longer absence is filled only
// that far.
const maxGapSteps = 1 << 12

// gapFiller feeds sealed steps to the engine in both modes. Before it
// forwards a customer's step, it reports each step the customer skipped
// since its previous one to ObserveMissing, so the detector branches have
// stepped in lockstep by the time the customer returns. This is the lazy
// form of a missing-step observation at every elapsed step: ObserveMissing
// never alerts, so the alerts and the returning customer's state are the
// same. Safe for concurrent use: the pipeline's aggregation workers submit
// from several goroutines, each owning a disjoint set of customers.
type gapFiller struct {
	eng  stepSink
	step time.Duration
	mu   sync.Mutex
	last map[netip.Addr]time.Time
}

func newGapFiller(eng stepSink, step time.Duration) *gapFiller {
	return &gapFiller{eng: eng, step: step, last: make(map[netip.Addr]time.Time)}
}

// Submit implements the ingest pipeline's Submitter.
func (g *gapFiller) Submit(customer netip.Addr, at time.Time, flows []xatu.Record) error {
	g.mu.Lock()
	prev, seen := g.last[customer]
	if !seen || at.After(prev) {
		g.last[customer] = at
	}
	g.mu.Unlock()
	if seen {
		t := prev.Add(g.step)
		for n := 0; n < maxGapSteps && t.Before(at); n++ {
			if err := g.eng.ObserveMissing(customer, t); err != nil {
				return err
			}
			t = t.Add(g.step)
		}
	}
	return g.eng.Submit(customer, at, flows)
}

// serve runs live ingest: the pipeline's read loop takes datagrams off the
// socket, decode workers partition them by exporter, aggregation workers
// seal per-customer steps by record event time once the watermark passes
// the lateness allowance, and sealed steps feed the engine's shards. It
// returns on SIGINT after the pipeline has flushed its open steps.
func serve(eng *xatu.Engine, sink *gapFiller, reg *xatu.TelemetryRegistry, listen string, threshold float64, step, lateness time.Duration, ckpt string, ckptIval time.Duration, ckptInc bool) {
	pc, err := net.ListenPacket("udp", listen)
	if err != nil {
		fatal("%v", err)
	}
	pipe, err := xatu.NewIngestPipeline(xatu.IngestConfig{
		Step:      step,
		Lateness:  lateness,
		Sink:      sink,
		Telemetry: reg,
	})
	if err != nil {
		fatal("%v", err)
	}
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	fmt.Printf("listening on %s, survival threshold %.4f, step %v, lateness %v, %d shards\n",
		pc.LocalAddr(), threshold, step, lateness, eng.Shards())

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
			pipe.Close() // seals the open steps into the engine
			if err := eng.Drain(); err != nil {
				fmt.Fprintf(os.Stderr, "xatu-detect: %v\n", err)
			}
			st := pipe.Stats()
			es := eng.Stats()
			fmt.Printf("shutting down (packets=%d records=%d steps=%d dup=%d reordered=%d lost=%d late=%d bad=%d)\n",
				st.Packets, st.Records, st.Steps, st.DupPackets, st.ReorderedPackets, st.LostRecords, st.DroppedLate, st.BadPackets)
			fmt.Printf("engine: %d shards, steps=%d missing=%d shed=%d alerts=%d queue-hw=%d\n",
				eng.Shards(), es.Steps, es.Missing, es.Shed, es.Alerts, es.QueueHighWater)
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

// replayJournal streams a recorded flow journal through the engine. Steps
// are sealed by the rule the live pipeline's aggregation workers apply
// (netflow.Aggregator: a step seals once a record lateness past its end has
// been read), so a journal replays the steps a live run of the same flows
// seals.
func replayJournal(eng *xatu.Engine, sink *gapFiller, path string, step, lateness time.Duration) {
	f, err := os.Open(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	jr, err := netflow.NewJournalReader(f)
	if err != nil {
		fatal("%v", err)
	}
	agg := netflow.NewAggregator(step, lateness)
	submit := func(sealed []netflow.StepBatch) {
		for _, b := range sealed {
			for customer, flows := range b.ByDst {
				if err := sink.Submit(customer, b.Start, flows); err != nil {
					fatal("replay: %v", err)
				}
			}
			agg.Recycle(b) // the engine copied the records it queued
		}
	}
	for {
		r, err := jr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal("replay: %v", err)
		}
		submit(agg.Add(r))
	}
	submit(agg.Flush())
	if err := eng.Drain(); err != nil {
		fatal("replay: %v", err)
	}
	fmt.Printf("replayed %d records (%d late), %d alerts across %d shards\n",
		jr.Count(), agg.Dropped(), eng.Stats().Alerts, eng.Shards())
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-detect: "+format+"\n", args...)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-detect: "+format+"\n", args...)
	os.Exit(1)
}
