// ispstream demonstrates the §2.6 deployment loop end-to-end over a real
// UDP socket: a synthetic ISP exports NetFlow v5 datagrams, the ingest
// pipeline decodes them and seals per-customer steps by record event time,
// and a sharded detection Engine (a quickly trained Xatu model + the
// 273-feature extractor, one single-threaded Monitor per shard) raises
// alerts as an attack window streams by.
//
//	go run ./examples/ispstream -shards 4
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"github.com/xatu-go/xatu"
)

func main() {
	shards := flag.Int("shards", 4, "detection shards; customers are hash-partitioned across them")
	queue := flag.Int("queue", 256, "per-shard mailbox capacity")
	telAddr := flag.String("telemetry-addr", "", "serve /metrics, /healthz and /debug endpoints while streaming (empty = disabled)")
	flag.Parse()

	// 1. Train a small model on a labeled world.
	cfg := xatu.BenchPipelineConfig(10, 7)
	cfg.Train.Epochs = 10
	fmt.Println("training a model (about a minute)...")
	p, err := xatu.NewPipeline(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ml, err := xatu.NewMLContext(p)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := ml.XatuAt(0.4)
	if err != nil {
		log.Fatal(err)
	}
	survivalThreshold := 1 - sys.Threshold
	fmt.Printf("calibrated survival threshold: %.4f\n", survivalThreshold)

	// 2. Start a sharded Engine over the trained models, fed by the ingest
	// pipeline on a UDP socket. Live ingest sheds oldest on overflow rather
	// than blocking. The registry is always on: the shutdown summary reads
	// its step latency quantiles even when no HTTP server is requested.
	reg := xatu.NewTelemetryRegistry()
	eng, err := xatu.NewEngine(xatu.EngineConfig{
		Monitor: xatu.MonitorConfig{
			Models:    ml.Models.ByType,
			Default:   ml.Models.Shared,
			Extractor: p.Extractor(nil, nil),
			Threshold: survivalThreshold,
		},
		Shards:    *shards,
		Queue:     *queue,
		Policy:    xatu.BackpressureShedOldest,
		Telemetry: reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	if *telAddr != "" {
		tsrv, err := xatu.NewTelemetryServer(*telAddr, reg, func() xatu.TelemetryHealth {
			h := eng.Health()
			return xatu.TelemetryHealth{OK: h.OK, Detail: h}
		})
		if err != nil {
			log.Fatal(err)
		}
		defer tsrv.Close()
		fmt.Printf("telemetry on http://%s/metrics\n", tsrv.Addr())
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	pipe, err := xatu.NewIngestPipeline(xatu.IngestConfig{
		Step:      cfg.World.Step,
		Lateness:  cfg.World.Step,
		Sink:      eng,
		Telemetry: reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- pipe.Serve(ctx, pc) }()

	// 3. Export a window around a real test attack through the socket.
	eps := p.MatchedEpisodes(p.StabEnd, cfg.World.Steps())
	if len(eps) == 0 {
		log.Fatal("no test attacks in this world; try another seed")
	}
	ep := eps[0]
	first := max(ep.StreamStart, 0)
	fmt.Printf("streaming a %v attack on customer %d (steps %d..%d) into %d shards...\n",
		ep.Type, ep.CustomerIdx, first, ep.StreamEnd, eng.Shards())

	// Alerts are read asynchronously and printed relative to the anomaly
	// start by their step timestamps.
	anomT := cfg.World.TimeOf(ep.AnomStart)
	alerts := 0
	alertsDone := make(chan struct{})
	go func() {
		defer close(alertsDone)
		for ev := range eng.Alerts() {
			fmt.Printf("  ALERT %v at %+.0f min relative to anomaly start (shard %d, survival %.4f < %.4f)\n",
				ev.Alert.Sig.Type, ev.At.Sub(anomT).Minutes(), ev.Shard, ev.Trace.Survival, ev.Trace.Threshold)
			alerts++
		}
	}()

	// Export on the record clock: the aggregation workers seal steps by
	// flow event time, so the datagrams must preserve the simulated
	// timestamps rather than clamping them into the wall-clock epoch.
	exp, err := xatu.NewExporterWithConfig(xatu.ExporterConfig{
		Addr:     pc.LocalAddr().String(),
		Sampling: 1,
		BootTime: cfg.World.TimeOf(first).Add(-time.Minute),
	})
	if err != nil {
		log.Fatal(err)
	}
	for s := first; s < ep.StreamEnd; s++ {
		for _, r := range p.World.FlowsAt(ep.CustomerIdx, s) {
			if err := exp.Export(r); err != nil {
				log.Fatal(err)
			}
		}
		if err := exp.Flush(); err != nil {
			log.Fatal(err)
		}
		// Pace the export so the UDP socket's read loop keeps up; the
		// pipeline itself applies backpressure past the socket.
		time.Sleep(2 * time.Millisecond)
	}
	exp.Close()
	time.Sleep(100 * time.Millisecond) // let the last datagrams land
	cancel()
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}
	pipe.Close() // seals the open steps into the engine
	if err := eng.Drain(); err != nil {
		log.Fatal(err)
	}
	st := pipe.Stats()
	es := eng.Stats()
	lat := eng.StepLatency().Summary()
	eng.Close()
	<-alertsDone
	fmt.Printf("done: %d alerts over %d ingest steps (%d records, %d lost, %d late), %d engine sheds, p99 step latency %v on %d shards\n",
		alerts, st.Steps, st.Records, st.LostRecords, st.DroppedLate, es.Shed, lat.P99, eng.Shards())
	fmt.Printf("self-healing: health=%s restarts=%d lost=%d snapshots=%d\n",
		es.Health, es.Restarts, es.Lost, es.Snapshots)
}
