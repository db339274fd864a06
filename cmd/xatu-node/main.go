// Command xatu-node runs one engine node of a distributed serving fleet:
// a supervised sharded detection Engine plus the parallel ingest pipeline
// and a telemetry server, wrapped with the cluster control plane. On
// start it joins the coordinator, receives its slice of the customer
// space from the versioned routing table, and participates in live
// migration: when the table moves customers, their warm detector state
// streams between nodes as subset checkpoint segments, and steps that
// arrive mid-handoff are buffered or forwarded rather than lost.
//
//	xatu-coord -listen 127.0.0.1:7070 -shards 4 &
//	xatu-node -id node-1 -coordinator 127.0.0.1:7070 -models ./models &
//	xatu-node -id node-2 -coordinator 127.0.0.1:7070 -models ./models &
package main

import (
	"context"
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
		id       = flag.String("id", "", "stable node identity (required; rejoining under the same ID reclaims the same partition)")
		coord    = flag.String("coordinator", "127.0.0.1:7070", "coordinator control-plane address (host:port; a http:// prefix is accepted and stripped)")
		modelDir = flag.String("models", "models", "directory written by xatu-train")
		thFlag   = flag.Float64("threshold", 0, "survival threshold override (0 = use saved)")
		ingest   = flag.String("ingest", "127.0.0.1:0", "NetFlow v5 listen address (advertised to the ingest tier)")
		api      = flag.String("api", "127.0.0.1:0", "cluster API listen address (table pushes, forwarded steps, migration segments)")
		telAddr  = flag.String("telemetry", "127.0.0.1:0", "Prometheus /metrics + /healthz listen address (scraped by the coordinator's federated /metrics)")
		shards   = flag.Int("shards", runtime.GOMAXPROCS(0), "detection shards (must match the coordinator's -shards)")
		step     = flag.Duration("step", 2*time.Minute, "aggregation step in record event time (xatu-train trains at 2m)")
		lateness = flag.Duration("lateness", 2*time.Minute, "how far out of order records may arrive before a step seals without them")
		workers  = flag.Int("workers", 2, "ingest decode + aggregation workers")
		queue    = flag.Int("queue", 1024, "per-shard mailbox capacity")
		traceN   = flag.Int("trace", 0, "deterministic 1-in-N flow tracing (0 = off; must match the coordinator's and router's -trace)")
	)
	flag.Parse()
	if *id == "" {
		fatal("-id is required")
	}
	// The cluster layer speaks plain HTTP and prepends the scheme itself;
	// accept a pasted URL anyway.
	*coord = strings.TrimSuffix(strings.TrimPrefix(*coord, "http://"), "/")

	mcfg, err := xatu.LoadMonitorConfig(*modelDir, *thFlag, logf)
	if err != nil {
		fatal("%v", err)
	}

	node, err := xatu.StartClusterNode(xatu.ClusterNodeConfig{
		ID:            *id,
		Coordinator:   *coord,
		APIAddr:       *api,
		IngestAddr:    *ingest,
		TelemetryAddr: *telAddr,
		Engine: xatu.EngineConfig{
			Monitor: mcfg,
			Shards:  *shards,
			Queue:   *queue,
			Policy:  xatu.BackpressureShedOldest,
			Step:    *step,
		},
		DecodeWorkers: *workers,
		AggWorkers:    *workers,
		TraceSample:   *traceN,
		Step:          *step,
		Lateness:      *lateness,
		Logf:          logf,
	})
	if err != nil {
		fatal("%v", err)
	}
	info := node.Info()
	fmt.Printf("node %s: ingest %s, api %s, telemetry http://%s/metrics, coordinator %s\n",
		info.ID, info.Ingest, info.API, info.Metrics, *coord)
	if err := node.WaitReady(10 * time.Second); err != nil {
		logf("%v (still retrying via heartbeat)", err)
	} else {
		fmt.Printf("node %s: routing table v%d applied\n", info.ID, node.TableVersion())
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	<-ctx.Done()
	st := node.Stats()
	es := node.Engine().Stats()
	fmt.Printf("shutting down: table v%d, channels=%d steps=%d migrated-out=%d migrated-in=%d forwarded=%d dropped=%d\n",
		st.TableVersion, es.Channels, es.Steps, st.MigrationsOut, st.MigrationsIn, st.StepsForwarded, st.StepsDropped)
	if err := node.Close(); err != nil {
		fatal("close: %v", err)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-node: "+format+"\n", args...)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-node: "+format+"\n", args...)
	os.Exit(1)
}
