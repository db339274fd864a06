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
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/xatu-go/xatu"
	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/routing"
	"github.com/xatu-go/xatu/internal/simnet"
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

	node, err := xatu.StartClusterNode(xatu.ClusterNodeConfig{
		ID:            *id,
		Coordinator:   *coord,
		APIAddr:       *api,
		IngestAddr:    *ingest,
		TelemetryAddr: *telAddr,
		Engine: xatu.EngineConfig{
			Monitor: xatu.MonitorConfig{
				Models: models, Default: def, Extractor: loadExtractor(*modelDir),
				Threshold: threshold,
			},
			Shards: *shards,
			Queue:  *queue,
			Policy: xatu.BackpressureShedOldest,
			Step:   *step,
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

// loadModels reads the per-attack-type models xatu-train exported
// (shared.xatu becomes the default model).
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

// loadExtractor builds the feature extractor from the registry files
// next to the models; missing files leave that signal empty.
func loadExtractor(dir string) *xatu.FeatureExtractor {
	ext := &xatu.FeatureExtractor{
		Blocklists: xatu.NewBlocklistRegistry(),
		History:    xatu.NewHistoryRegistry(),
		Geo:        simnet.GeoOf,
		A4Window:   72 * time.Hour,
		A5Window:   24 * time.Hour,
	}
	if f, err := os.Open(filepath.Join(dir, "blocklists.txt")); err == nil {
		if _, err := blocklist.LoadText(f, ext.Blocklists); err != nil {
			fatal("blocklists.txt: %v", err)
		}
		f.Close()
	} else {
		logf("warning: no blocklists.txt; A1 features will be empty")
	}
	table := &routing.Table{}
	if f, err := os.Open(filepath.Join(dir, "routes.txt")); err == nil {
		t, err := routing.LoadText(f)
		f.Close()
		if err != nil {
			fatal("routes.txt: %v", err)
		}
		table = t
	} else {
		logf("warning: no routes.txt; every source will look unrouted")
	}
	ext.Spoof = xatu.NewSpoofChecker(table)
	if f, err := os.Open(filepath.Join(dir, "history.snap")); err == nil {
		if err := ext.History.Load(f); err != nil {
			fatal("history.snap: %v", err)
		}
		f.Close()
	} else {
		logf("warning: no history.snap; A2/A4/A5 start cold")
	}
	return ext
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

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-node: "+format+"\n", args...)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-node: "+format+"\n", args...)
	os.Exit(1)
}
