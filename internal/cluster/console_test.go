package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/telemetry"
	"github.com/xatu-go/xatu/internal/trace"
)

// getBody GETs a coordinator endpoint and returns (status, body, content-type).
func getBody(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw), resp.Header.Get("Content-Type")
}

// TestFederatedScrapeFailureAndStale pins the scrape-failure contract:
// when a node's /metrics stops answering, the coordinator re-serves the
// node's last good families flagged stale and counts the failure in
// xatu_cluster_scrape_failures_total.
func TestFederatedScrapeFailureAndStale(t *testing.T) {
	exposition := "# HELP xatu_engine_steps_total Steps.\n# TYPE xatu_engine_steps_total counter\nxatu_engine_steps_total 42\n"
	fake, err := serveHTTP("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, exposition)
	}))
	if err != nil {
		t.Fatal(err)
	}

	clock := newFakeNow()
	c := NewCoordinator(CoordinatorConfig{
		Shards:           2,
		HeartbeatTimeout: time.Second,
		SweepEvery:       -1,
		DedupWindow:      time.Minute,
		Now:              clock.Now,
		Telemetry:        telemetry.NewRegistry(),
	})
	defer c.Close()
	info := testNodeInfo("n1")
	info.Metrics = fake.Addr()
	c.Join(info)

	srv, err := c.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	scrape := func() string {
		code, body, ct := getBody(t, "http://"+srv.Addr()+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("federated /metrics status %d", code)
		}
		if ct != "text/plain; version=0.0.4; charset=utf-8" {
			t.Fatalf("federated /metrics Content-Type %q", ct)
		}
		return body
	}

	live := scrape()
	if !strings.Contains(live, `xatu_engine_steps_total{node="n1"} 42`) {
		t.Fatalf("live scrape missing the node sample:\n%s", live)
	}
	if !strings.Contains(live, `xatu_cluster_scrape_stale{node="n1"} 0`) {
		t.Fatalf("live scrape not flagged fresh:\n%s", live)
	}

	fake.Close() // the node's telemetry listener dies mid-incident
	down := scrape()
	if !strings.Contains(down, `xatu_engine_steps_total{node="n1"} 42`) {
		t.Fatalf("cached families not re-served after scrape failure:\n%s", down)
	}
	if !strings.Contains(down, `xatu_cluster_scrape_stale{node="n1"} 1`) {
		t.Fatalf("stale cache not flagged:\n%s", down)
	}
	// The coordinator's own families render before the scrape round, so
	// the failure counter surfaces on the next exposition.
	if again := scrape(); !strings.Contains(again, `xatu_cluster_scrape_failures_total{node="n1"} 1`) {
		t.Fatalf("first scrape failure not counted:\n%s", again)
	}
	if third := scrape(); !strings.Contains(third, `xatu_cluster_scrape_failures_total{node="n1"} 2`) {
		t.Fatalf("second scrape failure not counted:\n%s", third)
	}
}

// checkExposition is a minimal Prometheus text-format conformance pass:
// every sample's family has # TYPE metadata emitted before its first
// sample, and no family's HELP/TYPE appears twice (the federation dedup
// contract across the coordinator's own and every node's families).
func checkExposition(t *testing.T, body string) {
	t.Helper()
	seenHelp := map[string]bool{}
	seenType := map[string]bool{}
	hasType := func(name string) bool {
		if seenType[name] {
			return true
		}
		// Histogram samples and the registry's _max companion gauge carry
		// a suffix on top of the family (or companion) name.
		for _, suf := range []string{"_bucket", "_sum", "_count", "_max"} {
			if base := strings.TrimSuffix(name, suf); base != name && seenType[base] {
				return true
			}
		}
		return false
	}
	for ln, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if name, ok := strings.CutPrefix(line, "# HELP "); ok {
			name = strings.Fields(name)[0]
			if seenHelp[name] {
				t.Errorf("line %d: duplicate HELP for %s", ln+1, name)
			}
			seenHelp[name] = true
			continue
		}
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name = strings.Fields(name)[0]
			if seenType[name] {
				t.Errorf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			seenType[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if !hasType(name) {
			t.Errorf("line %d: sample %s has no preceding TYPE", ln+1, name)
		}
	}
}

// TestFederatedExpositionConformance merges the coordinator's own
// registry with two nodes exposing overlapping counter and histogram
// families and runs the conformance pass over the full merged body.
func TestFederatedExpositionConformance(t *testing.T) {
	exposition := strings.Join([]string{
		"# HELP xatu_engine_steps_total Steps.",
		"# TYPE xatu_engine_steps_total counter",
		"xatu_engine_steps_total 42",
		"# HELP xatu_step_seconds Step latency.",
		"# TYPE xatu_step_seconds histogram",
		`xatu_step_seconds_bucket{le="0.5"} 3`,
		`xatu_step_seconds_bucket{le="+Inf"} 4`,
		"xatu_step_seconds_sum 1.25",
		"xatu_step_seconds_count 4",
		"",
	}, "\n")
	fake, err := serveHTTP("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, exposition)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()

	reg := telemetry.NewRegistry()
	reg.Counter("xatu_cluster_rebalances_total_test", "Test counter.").Inc()
	reg.Histogram("xatu_cluster_push_seconds_test", "Test histogram.").Observe(10 * time.Millisecond)
	clock := newFakeNow()
	c := NewCoordinator(CoordinatorConfig{
		Shards:           2,
		HeartbeatTimeout: time.Second,
		SweepEvery:       -1,
		DedupWindow:      time.Minute,
		Now:              clock.Now,
		Telemetry:        reg,
	})
	defer c.Close()
	for _, id := range []string{"n1", "n2"} {
		info := testNodeInfo(id)
		info.Metrics = fake.Addr() // same families from both nodes
		c.Join(info)
	}

	srv, err := c.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	_, body, _ := getBody(t, "http://"+srv.Addr()+"/metrics")
	checkExposition(t, body)
	for _, want := range []string{
		`xatu_step_seconds_bucket{node="n1",le="0.5"} 3`,
		`xatu_step_seconds_bucket{node="n2",le="0.5"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("missing %q in merged exposition:\n%s", want, body)
		}
	}
}

// TestCoordinatorHealthzJSON pins the coordinator's machine-readable
// health body: node identity, current table version, member count.
func TestCoordinatorHealthzJSON(t *testing.T) {
	clock := newFakeNow()
	c := testCoordinator(clock)
	defer c.Close()
	c.Join(testNodeInfo("a"))
	tb, _ := c.Join(testNodeInfo("b"))

	srv, err := c.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	code, body, ct := getBody(t, "http://"+srv.Addr()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	if ct != "application/json" {
		t.Fatalf("/healthz Content-Type %q", ct)
	}
	var doc struct {
		OK           bool   `json:"ok"`
		Node         string `json:"node"`
		TableVersion uint64 `json:"tableVersion"`
		Nodes        int    `json:"nodes"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/healthz body %q: %v", body, err)
	}
	if !doc.OK || doc.Node != "coordinator" || doc.Nodes != 2 || doc.TableVersion != tb.Version {
		t.Fatalf("/healthz doc %+v (want ok, coordinator, 2 nodes, version %d)", doc, tb.Version)
	}
}

// TestConsoleEndpoints drives the full console data plane against one
// fake node: /v1/status scrapes the node's live healthz, /v1/traces
// assembles the node's spans with the coordinator's fan-in span into one
// cross-node timeline, /v1/incidents merges both flight recorders, and
// /console (plus the / redirect) serves the embedded dashboard.
func TestConsoleEndpoints(t *testing.T) {
	cust := netip.MustParseAddr("203.0.113.9")
	at := time.Date(2026, 1, 1, 0, 10, 0, 0, time.UTC)

	// The fake node's debug surfaces are real recorders, not canned JSON:
	// the test pins that what a node serves is what the console can join.
	rec := trace.NewRecorder("n1", trace.NewSampler(1), 0)
	export := at.Add(-30 * time.Second)
	rec.RecordOrigin(cust, export, export.Add(2*time.Millisecond))
	rec.RecordSeal(cust, at, export.Add(5*time.Millisecond))
	rec.Record(cust, at, trace.StageStep, 2*time.Millisecond, "shard 0")
	fl := trace.NewFlight("n1", 0)
	fl.Record("health", "healthy -> degraded: queue pressure")
	fl.Dump("health:degraded")

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		// The shape a node's telemetry server answers with (StartNode).
		fmt.Fprint(w, `{"ok":true,"detail":{"node":"n1","tableVersion":3,"ok":true,"closed":false,"state":"healthy","shards":[]}}`)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) { w.Write(rec.JSON()) })
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) { w.Write(fl.JSON()) })
	fake, err := serveHTTP("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()

	clock := newFakeNow()
	c := NewCoordinator(CoordinatorConfig{
		Shards:           2,
		HeartbeatTimeout: time.Second,
		SweepEvery:       -1,
		DedupWindow:      time.Minute,
		Now:              clock.Now,
		TraceSample:      1,
	})
	defer c.Close()
	info := testNodeInfo("n1")
	info.Metrics = fake.Addr()
	c.Join(info) // records a "member" flight event on the coordinator
	c.tracer.Record(cust, at, trace.StageFanin, time.Millisecond, "alert type 0 from n1 shard 0")

	srv, err := c.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// /v1/status: registry row + live healthz scrape.
	code, body, ct := getBody(t, base+"/v1/status")
	if code != http.StatusOK || ct != "application/json" {
		t.Fatalf("/v1/status %d %q", code, ct)
	}
	var status struct {
		Nodes []struct {
			ID     string          `json:"id"`
			Up     bool            `json:"up"`
			Health json.RawMessage `json:"health"`
		} `json:"nodes"`
		TraceRate int `json:"traceRate"`
	}
	if err := json.Unmarshal([]byte(body), &status); err != nil {
		t.Fatal(err)
	}
	if len(status.Nodes) != 1 || status.Nodes[0].ID != "n1" || !status.Nodes[0].Up {
		t.Fatalf("/v1/status nodes %+v", status.Nodes)
	}
	if !strings.Contains(string(status.Nodes[0].Health), `"tableVersion":3`) {
		t.Fatalf("healthz body not passed through: %s", status.Nodes[0].Health)
	}
	if status.TraceRate != 1 {
		t.Fatalf("traceRate %d, want 1", status.TraceRate)
	}

	// /v1/traces: one (customer, at) timeline holding the node's
	// export/decode/seal/step chain joined with the coordinator's fan-in.
	_, body, _ = getBody(t, base+"/v1/traces")
	var traces struct {
		Rate      int `json:"rate"`
		Timelines []struct {
			Customer string    `json:"customer"`
			At       time.Time `json:"at"`
			Spans    []struct {
				Stage string `json:"stage"`
				Node  string `json:"node"`
			} `json:"spans"`
		} `json:"timelines"`
	}
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Timelines) != 1 {
		t.Fatalf("got %d timelines, want 1:\n%s", len(traces.Timelines), body)
	}
	tl := traces.Timelines[0]
	if tl.Customer != cust.String() || !tl.At.Equal(at) {
		t.Fatalf("timeline keyed (%s, %v), want (%s, %v)", tl.Customer, tl.At, cust, at)
	}
	stages := map[string]string{}
	for _, s := range tl.Spans {
		stages[s.Stage] = s.Node
	}
	for stage, node := range map[string]string{
		"export": "n1", "decode": "n1", "seal": "n1", "step": "n1", "fanin": "coordinator",
	} {
		if stages[stage] != node {
			t.Errorf("stage %s on node %q, want %q (timeline %+v)", stage, stages[stage], node, tl.Spans)
		}
	}
	if tl.Spans[0].Stage != "export" {
		t.Errorf("first span by wall clock is %s, want export", tl.Spans[0].Stage)
	}

	// /v1/incidents: both flight recorders merged, time-ordered.
	_, body, _ = getBody(t, base+"/v1/incidents")
	var incidents struct {
		Events []trace.FlightEvent `json:"events"`
		Dumps  []trace.Dump        `json:"dumps"`
	}
	if err := json.Unmarshal([]byte(body), &incidents); err != nil {
		t.Fatal(err)
	}
	nodes := map[string]bool{}
	for i, e := range incidents.Events {
		nodes[e.Node] = true
		if i > 0 && e.At.Before(incidents.Events[i-1].At) {
			t.Fatalf("incident events out of time order at %d", i)
		}
	}
	if !nodes["n1"] || !nodes["coordinator"] {
		t.Fatalf("incident events from %v, want both n1 and coordinator", nodes)
	}
	if len(incidents.Dumps) != 1 || incidents.Dumps[0].Trigger != "health:degraded" {
		t.Fatalf("incident dumps %+v", incidents.Dumps)
	}

	// /console and the root redirect both land on the embedded dashboard.
	code, body, ct = getBody(t, base+"/console")
	if code != http.StatusOK || !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("/console %d %q", code, ct)
	}
	if !strings.Contains(body, "xatu ops console") {
		t.Fatal("/console body is not the embedded dashboard")
	}
	if _, rootBody, _ := getBody(t, base+"/"); rootBody != body {
		t.Fatal("/ did not land on the console")
	}
}
