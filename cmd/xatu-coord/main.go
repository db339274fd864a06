// Command xatu-coord runs the cluster coordinator: the HTTP/JSON control
// plane for a fleet of xatu-detect engine nodes. It tracks membership
// (join/leave/heartbeat with timeout takeover), maintains the versioned
// customer→node routing table, fans in deduped alerts from every node,
// and serves a federated Prometheus /metrics merging its own families
// with each node's scrape under a node="id" label.
//
//	xatu-coord -listen 127.0.0.1:7070 -shards 4 &
//	xatu-detect -id node-1 -coordinator 127.0.0.1:7070 -models ./models -listen 127.0.0.1:0 &
//	xatu-detect -id node-2 -coordinator 127.0.0.1:7070 -models ./models -listen 127.0.0.1:0 &
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"time"

	"github.com/xatu-go/xatu"
)

func main() {
	var (
		listen  = flag.String("listen", "127.0.0.1:7070", "control-plane listen address")
		shards  = flag.Int("shards", 4, "engine shards per node (second level of the customer partition; must match the nodes)")
		hbTmo   = flag.Duration("heartbeat-timeout", 5*time.Second, "drop a node after this long without a heartbeat")
		sweep   = flag.Duration("sweep-every", 0, "liveness sweep period (0 = heartbeat-timeout/4)")
		dedup   = flag.Duration("dedup-window", 10*time.Minute, "at-most-once alert fan-in window")
		alertsF = flag.Bool("print-alerts", true, "print each accepted alert to stdout")
		traceN  = flag.Int("trace", 0, "deterministic 1-in-N flow tracing (0 = off; must match the nodes' and router's -trace)")
	)
	flag.Parse()

	reg := xatu.NewTelemetryRegistry()
	coord := xatu.NewCoordinator(xatu.CoordinatorConfig{
		Shards:           *shards,
		HeartbeatTimeout: *hbTmo,
		SweepEvery:       *sweep,
		DedupWindow:      *dedup,
		Telemetry:        reg,
		TraceSample:      *traceN,
		Logf:             logf,
	})
	defer coord.Close()
	srv, err := coord.StartServer(*listen)
	if err != nil {
		fatal("%v", err)
	}
	defer srv.Close()
	fmt.Printf("coordinator on http://%s (shards=%d, heartbeat timeout %v)\n", srv.Addr(), *shards, *hbTmo)
	fmt.Printf("ops console on http://%s/console (traces /v1/traces, incidents /v1/incidents)\n", srv.Addr())

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()
	if *alertsF {
		go printAlerts(ctx, coord)
	}
	<-ctx.Done()
	t := coord.CurrentTable()
	_, _, accepted := coord.AlertsSince(math.MaxUint64)
	fmt.Printf("shutting down: table v%d, %d nodes, %d alerts accepted\n",
		t.Version, len(t.Nodes), accepted)
}

// printAlerts follows the deduped fan-in's alert log by cursor and prints
// alerts as they accrue, saying so if the bounded log overwrote any
// before they were printed.
func printAlerts(ctx context.Context, coord *xatu.Coordinator) {
	var cursor uint64
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		alerts, oldest, last := coord.AlertsSince(cursor)
		if oldest > cursor+1 {
			logf("xatu-coord: %d alerts overwritten before they were printed", oldest-cursor-1)
		}
		cursor = last
		for _, a := range alerts {
			fmt.Printf("%s ALERT customer=%s type=%d severity=%d node=%s shard=%d\n",
				a.At.Format(time.RFC3339), a.Customer, a.Type, a.Severity, a.Node, a.Shard)
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-coord: "+format+"\n", args...)
	os.Exit(1)
}
