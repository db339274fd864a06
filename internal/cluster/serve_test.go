package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/telemetry"
)

// alertLog collects a node's alerts through OnAlert.
type alertLog struct {
	mu  sync.Mutex
	got []string
}

func (l *alertLog) add(ev engine.AlertEvent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.got = append(l.got, fmt.Sprintf("%v %v %s", ev.Customer, ev.Alert.Sig.Type, ev.At.Format(time.RFC3339)))
}

// sorted returns the alerts of every log, sorted.
func sortedAlerts(logs ...*alertLog) []string {
	var all []string
	for _, l := range logs {
		l.mu.Lock()
		all = append(all, l.got...)
		l.mu.Unlock()
	}
	sort.Strings(all)
	return all
}

// servingConfig is the node configuration xatu-detect builds, on the tiny
// test engine: blocking mailboxes (a replay loses nothing), gap fill on.
func servingConfig(t testing.TB, id, coord string, alerts *alertLog) NodeConfig {
	ecfg := tinyEngineConfig(t)
	ecfg.Policy = engine.Block
	return NodeConfig{
		ID:             id,
		Coordinator:    coord,
		Engine:         ecfg,
		Step:           time.Minute,
		Lateness:       time.Minute,
		DecodeWorkers:  1,
		AggWorkers:     1,
		HeartbeatEvery: 50 * time.Millisecond,
		MigrateTimeout: 3 * time.Second,
		GapFill:        true,
		OnAlert:        alerts.add,
	}
}

func mustStart(t testing.TB, cfg NodeConfig) *Node {
	t.Helper()
	n, err := StartNode(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestReplayStandaloneMatchesFleet replays one journal through a
// standalone node and through node-a of a two-node fleet, which forwards
// node-b's customers to it: gap fill runs on each customer's owner, no
// step is dropped, and the alert sets are equal.
func TestReplayStandaloneMatchesFleet(t *testing.T) {
	// 48 customers over 40 one-minute steps, each quiet at one step in
	// seven: more forwarded steps than a forwarder queue holds.
	customers := clusterCustomers(48)
	var journal bytes.Buffer
	jw, err := netflow.NewJournalWriter(&journal)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 40; s++ {
		for i, c := range customers {
			if (s+i)%7 == 3 {
				continue
			}
			for _, r := range clusterUDPFlows(c, s) {
				if err := jw.Write(r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := jw.Flush(); err != nil {
		t.Fatal(err)
	}

	var solo alertLog
	n := mustStart(t, servingConfig(t, "solo", "", &solo))
	if _, _, err := n.Replay(bytes.NewReader(journal.Bytes())); err != nil {
		t.Fatal(err)
	}
	if st := n.Engine().Stats(); st.Missing == 0 {
		t.Fatal("the standalone replay filled no missing step; the fixture is broken")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	want := sortedAlerts(&solo)
	if len(want) == 0 {
		t.Fatal("the standalone replay raised no alert; the fixture is broken")
	}

	coord := NewCoordinator(CoordinatorConfig{Shards: 2, HeartbeatTimeout: 5 * time.Second})
	defer coord.Close()
	srv, err := coord.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var logA, logB alertLog
	a := mustStart(t, servingConfig(t, "node-a", srv.Addr(), &logA))
	defer a.Kill()
	b := mustStart(t, servingConfig(t, "node-b", srv.Addr(), &logB))
	defer b.Kill()
	waitFor(t, 10*time.Second, "both nodes on the two-node table with their windows closed", func() bool {
		v := coord.CurrentTable().Version
		settled := func(n *Node) bool {
			n.mu.Lock()
			defer n.mu.Unlock()
			return n.table != nil && n.table.Version == v && len(n.table.Nodes) == 2 && n.inbound == nil
		}
		return settled(a) && settled(b)
	})
	if _, _, err := a.Replay(bytes.NewReader(journal.Bytes())); err != nil {
		t.Fatal(err)
	}
	if err := b.Engine().Drain(); err != nil {
		t.Fatal(err)
	}
	sa, sb := a.Stats(), b.Stats()
	if sa.StepsForwarded == 0 {
		t.Fatal("node-a forwarded no step; the fleet leg proves nothing")
	}
	if sa.StepsDropped != 0 || sb.StepsDropped != 0 {
		t.Fatalf("steps dropped: node-a %d, node-b %d", sa.StepsDropped, sb.StepsDropped)
	}
	a.Close()
	b.Close()
	if got := sortedAlerts(&logA, &logB); !slices.Equal(got, want) {
		t.Fatalf("fleet replay raised %d alerts, standalone %d:\nfleet %v\nsolo  %v", len(got), len(want), got, want)
	}
}

// TestNodeRestartResumesFromCheckpoint stops a standalone node halfway
// through its input and starts it again on the same checkpoint file: its
// alerts and final detector state equal an uninterrupted node's. Every
// customer has a step every tick, since the gap filler's memory of a
// customer's last step is not part of the checkpoint.
func TestNodeRestartResumesFromCheckpoint(t *testing.T) {
	customers := clusterCustomers(8)
	feed := func(n *Node, from, to int) {
		for s := from; s < to; s++ {
			for _, c := range customers {
				if err := n.Submit(c, testT0.Add(time.Duration(s)*time.Minute), clusterUDPFlows(c, s)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	run := func(path string, splits ...int) ([]string, []byte) {
		var log alertLog
		from := 0
		for _, to := range splits {
			cfg := servingConfig(t, "solo", "", &log)
			cfg.Checkpoint = path
			n := mustStart(t, cfg)
			if from > 0 && n.Engine().Stats().Channels == 0 {
				t.Fatal("the restarted node restored no channel")
			}
			feed(n, from, to)
			if err := n.Close(); err != nil {
				t.Fatal(err)
			}
			from = to
		}
		ck, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sortedAlerts(&log), ck
	}
	dir := t.TempDir()
	wantAlerts, wantCkpt := run(filepath.Join(dir, "uninterrupted.xmc"), 30)
	gotAlerts, gotCkpt := run(filepath.Join(dir, "restarted.xmc"), 15, 30)
	if len(wantAlerts) == 0 {
		t.Fatal("the uninterrupted node raised no alert; the fixture is broken")
	}
	if !slices.Equal(gotAlerts, wantAlerts) {
		t.Fatalf("alerts differ:\nrestarted     %v\nuninterrupted %v", gotAlerts, wantAlerts)
	}
	if !bytes.Equal(gotCkpt, wantCkpt) {
		t.Fatalf("final checkpoints differ: restarted %d bytes, uninterrupted %d", len(gotCkpt), len(wantCkpt))
	}
}

// TestWarmReturnMatchesStandalone grows a fleet {a} → {a,b} → {a,b,c},
// which moves some customers a → b → a with their warm state. A node
// forgets its own last step of a customer it hands off or takes back, so
// gap fill on the returning owner reports no step another node served:
// every customer's state (its XMC1 bytes) and the alerts equal a
// standalone node's over the same steps. Every customer has a step every
// tick, so the standalone node fills no gap either.
func TestWarmReturnMatchesStandalone(t *testing.T) {
	customers := clusterCustomers(24)
	const phaseSteps = 8
	feed := func(n *Node, phase int) {
		for s := phase * phaseSteps; s < (phase+1)*phaseSteps; s++ {
			for _, c := range customers {
				if err := n.route(WireStep{Customer: c, At: testT0.Add(time.Duration(s) * time.Minute), Flows: clusterUDPFlows(c, s)}, true); err != nil {
					t.Fatal(err)
				}
			}
		}
		n.awaitForwarders()
	}

	var solo alertLog
	sn := mustStart(t, servingConfig(t, "solo", "", &solo))
	defer sn.Kill()
	for phase := 0; phase < 3; phase++ {
		feed(sn, phase)
	}
	if err := sn.Engine().Drain(); err != nil {
		t.Fatal(err)
	}

	coord := NewCoordinator(CoordinatorConfig{Shards: 2, HeartbeatTimeout: 5 * time.Second})
	defer coord.Close()
	srv, err := coord.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var logs [3]alertLog
	var nodes []*Node
	owners := make(map[netip.Addr]string) // each customer's owners so far, one letter per phase
	for phase, id := range []string{"node-a", "node-b", "node-c"} {
		cfg := servingConfig(t, id, srv.Addr(), &logs[phase])
		cfg.Logf = t.Logf
		n := mustStart(t, cfg)
		defer n.Kill()
		nodes = append(nodes, n)
		waitFor(t, 10*time.Second, "every node on the new table with its window closed", func() bool {
			tb := coord.CurrentTable()
			if len(tb.Nodes) != len(nodes) {
				return false
			}
			for _, n := range nodes {
				n.mu.Lock()
				settled := n.table != nil && n.table.Version == tb.Version && n.inbound == nil
				n.mu.Unlock()
				if !settled {
					return false
				}
			}
			return true
		})
		// The outbound migration runs after the window on the far side
		// closes; wait until every customer's channel is on its owner.
		tb := coord.CurrentTable()
		waitFor(t, 10*time.Second, "every channel on its owner", func() bool {
			for _, n := range nodes {
				owned := 0
				for _, c := range customers {
					if tb.OwnerID(c) == n.cfg.ID {
						owned++
					}
				}
				if phase > 0 && n.Engine().Stats().Channels != owned {
					return false
				}
			}
			return true
		})
		for _, c := range customers {
			owners[c] += tb.OwnerID(c)[len("node-"):]
		}
		feed(nodes[0], phase)
		for _, n := range nodes {
			if err := n.Engine().Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	returned := 0
	for _, path := range owners {
		if path == "aba" {
			returned++
		}
	}
	if returned == 0 {
		t.Fatalf("no customer moved a → b → a (%v); the fixture proves nothing", owners)
	}

	final := coord.CurrentTable()
	for _, c := range customers {
		var owner *Node
		for _, n := range nodes {
			if n.cfg.ID == final.OwnerID(c) {
				owner = n
			}
		}
		one := func(x netip.Addr) bool { return x == c }
		var got, want bytes.Buffer
		if _, err := owner.Engine().CheckpointCustomers(&got, one); err != nil {
			t.Fatal(err)
		}
		if _, err := sn.Engine().CheckpointCustomers(&want, one); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("customer %v (owners %s): state differs from the standalone node's", c, owners[c])
		}
	}
	for _, n := range nodes {
		if st := n.Stats(); st.StepsDropped != 0 {
			t.Fatalf("%s dropped %d steps", n.cfg.ID, st.StepsDropped)
		}
		if m := n.Engine().Stats().Missing; m != 0 {
			t.Errorf("%s reported %d missing steps, want none", n.cfg.ID, m)
		}
	}
	for _, n := range nodes {
		n.Close()
	}
	sn.Close()
	want := sortedAlerts(&solo)
	if len(want) == 0 {
		t.Fatal("the standalone node raised no alert; the fixture is broken")
	}
	if got := sortedAlerts(&logs[0], &logs[1], &logs[2]); !slices.Equal(got, want) {
		t.Fatalf("fleet raised %d alerts, standalone %d:\nfleet %v\nsolo  %v", len(got), len(want), got, want)
	}
}

// TestStandaloneNodeOpensNoControlPlane: a node without a coordinator
// listens for no table push, so nothing can re-route its customers.
func TestStandaloneNodeOpensNoControlPlane(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	var log alertLog
	cfg := servingConfig(t, "solo", "", &log)
	cfg.APIAddr = addr
	n := mustStart(t, cfg)
	defer n.Kill()
	if api := n.Info().API; api != "" {
		t.Fatalf("standalone node advertises a cluster API at %s", api)
	}
	push := tableResponse{Table: Table{Version: 2, Shards: 1, Nodes: []NodeInfo{{ID: "x", API: "127.0.0.1:1"}}}}
	if err := call(&http.Client{Timeout: time.Second}, addr, "/v1/table", push, nil); err == nil {
		t.Fatal("a table push to a standalone node was accepted")
	}
	if v := n.TableVersion(); v != 1 {
		t.Fatalf("standalone node on table v%d, want its static v1", v)
	}
}

// TestNodeHealthz pins both health bodies: the telemetry listener's
// detail is the engine's whole health report plus the node identity and
// table version; the cluster API's is the compact probe body.
func TestNodeHealthz(t *testing.T) {
	var log alertLog
	n := mustStart(t, servingConfig(t, "solo", "", &log))
	defer n.Kill()
	resp, err := http.Get("http://" + n.Info().Metrics + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var tel struct {
		OK     bool `json:"ok"`
		Detail struct {
			Node         string               `json:"node"`
			TableVersion uint64               `json:"tableVersion"`
			State        string               `json:"state"`
			Closed       *bool                `json:"closed"`
			Shards       []engine.ShardHealth `json:"shards"`
		} `json:"detail"`
	}
	err = json.NewDecoder(resp.Body).Decode(&tel)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d := tel.Detail; !tel.OK || d.Node != "solo" || d.TableVersion != 1 || d.State != "healthy" || d.Closed == nil || *d.Closed || len(d.Shards) != 2 {
		t.Fatalf("telemetry /healthz = %+v", tel)
	}
	rec := httptest.NewRecorder()
	n.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	var api nodeHealth
	if err := json.NewDecoder(rec.Body).Decode(&api); err != nil {
		t.Fatal(err)
	}
	if want := (nodeHealth{OK: true, Node: "solo", TableVersion: 1, Health: "healthy"}); api != want {
		t.Fatalf("cluster API /healthz = %+v, want %+v", api, want)
	}
}

// offlineClient refuses every connection: peers named in a table pushed
// by a test are never dialed.
var offlineClient = &http.Client{Transport: &http.Transport{
	DialContext: func(context.Context, string, string) (net.Conn, error) {
		return nil, errors.New("test node dials no peer")
	},
}}

func post(h http.Handler, path, body string) int {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body))))
	return rec.Code
}

// TestNodeRefusesUnroutableTable: a table routing cannot use — zero
// shards, an empty or a repeated node ID — is answered 400 and leaves the
// current table in place, so the next routed step is served rather than
// dividing by zero; a step with negative hops is dropped and counted.
func TestNodeRefusesUnroutableTable(t *testing.T) {
	var log alertLog
	cfg := servingConfig(t, "node-a", "", &log)
	cfg.HTTPClient = offlineClient
	n := mustStart(t, cfg)
	defer n.Kill()
	h := n.handler()
	for _, body := range []string{
		`{"table":{"version":999,"shards":0,"nodes":[{"id":"node-a","api":"127.0.0.1:1"}]}}`,
		`{"table":{"version":999,"shards":2,"nodes":[{"id":"","api":"127.0.0.1:1"}]}}`,
		`{"table":{"version":999,"shards":2,"nodes":[{"id":"node-a"},{"id":"node-a"}]}}`,
	} {
		if code := post(h, "/v1/table", body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", body, code)
		}
		if v := n.TableVersion(); v != 1 {
			t.Fatalf("%s: table v%d installed, want v1 kept", body, v)
		}
	}
	customer := clusterCustomers(1)[0]
	if err := n.Submit(customer, testT0, clusterUDPFlows(customer, 0)); err != nil {
		t.Fatal(err)
	}
	if code := post(h, "/v1/steps", `{"steps":[{"customer":"203.0.113.1","at":"2019-07-03T12:01:00Z","hops":-1}]}`); code != http.StatusNoContent {
		t.Fatalf("steps: status %d, want 204", code)
	}
	if err := n.Engine().Drain(); err != nil {
		t.Fatal(err)
	}
	if st := n.Engine().Stats(); st.Steps != 1 {
		t.Fatalf("engine stepped %d steps, want 1", st.Steps)
	}
	if d := n.Stats().StepsDropped; d != 1 {
		t.Fatalf("%d steps dropped, want the negative-hop one", d)
	}
}

// FuzzNodeControl feeds arbitrary bodies to a standalone node's control
// plane, /v1/table then /v1/steps, and routes one step: nothing panics,
// the engine accounts for every step it was handed, and a refused table
// leaves the table version where it was.
func FuzzNodeControl(f *testing.F) {
	var log alertLog
	cfg := servingConfig(f, "node-a", "", &log)
	cfg.HTTPClient = offlineClient
	cfg.MigrateTimeout = 10 * time.Millisecond
	n := mustStart(f, cfg)
	defer n.Kill()
	h := n.handler()
	customer := clusterCustomers(1)[0]
	tick := 0
	f.Fuzz(func(t *testing.T, table, steps []byte) {
		before := n.TableVersion()
		if post(h, "/v1/table", string(table)) == http.StatusBadRequest && n.TableVersion() != before {
			t.Fatalf("a refused table moved the version from %d to %d", before, n.TableVersion())
		}
		post(h, "/v1/steps", string(steps))
		tick++
		if err := n.Submit(customer, testT0.Add(time.Duration(tick)*time.Minute), clusterUDPFlows(customer, tick)); err != nil {
			t.Fatal(err)
		}
		if err := n.Engine().Drain(); err != nil {
			t.Fatal(err)
		}
		if st := n.Engine().Stats(); st.Steps+st.Missing+st.Bypassed+st.Shed != st.Submitted {
			t.Fatalf("steps %d + missing %d + bypassed %d + shed %d != submitted %d",
				st.Steps, st.Missing, st.Bypassed, st.Shed, st.Submitted)
		}
	})
}

// FuzzCoordinatorControl feeds arbitrary join, heartbeat, leave and alert
// bodies to a coordinator's control plane, the alert batch twice as a
// node retrying it would: nothing panics, every table the coordinator
// serves is one routing can use, the fan-in never holds one
// (customer, type, at) identity twice, and a repeated batch adds nothing.
func FuzzCoordinatorControl(f *testing.F) {
	type identity struct {
		customer string
		atype    int
		sec      int64
		nsec     int
	}
	f.Fuzz(func(t *testing.T, join, heartbeat []byte, leave string, alerts []byte) {
		c := NewCoordinator(CoordinatorConfig{
			Shards: 2, SweepEvery: -1, HTTPClient: offlineClient, Telemetry: telemetry.NewRegistry(),
		})
		defer c.Close()
		h := c.Handler()
		served := func(path, body string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body))))
			if rec.Code != http.StatusOK {
				return
			}
			var tr tableResponse
			if err := json.NewDecoder(rec.Body).Decode(&tr); err != nil {
				t.Fatalf("%s answered 200 with an undecodable table: %v", path, err)
			}
			if err := tr.Table.validate(); err != nil {
				t.Fatalf("%s served an unroutable table %+v: %v", path, tr.Table, err)
			}
		}
		served("/v1/join", string(join))
		post(h, "/v1/heartbeat", string(heartbeat))
		post(h, "/v1/leave?id="+url.QueryEscape(leave), "")
		post(h, "/v1/alerts", string(alerts))
		before := len(c.Alerts())
		post(h, "/v1/alerts", string(alerts))
		served("/v1/table", "")
		if tbl := c.CurrentTable(); tbl.validate() != nil {
			t.Fatalf("current table %+v is unroutable", tbl)
		}
		held := c.Alerts()
		if len(held) != before {
			t.Fatalf("a repeated alert batch grew the fan-in from %d to %d", before, len(held))
		}
		seen := make(map[identity]bool, len(held))
		for _, a := range held {
			k := identity{a.Customer, a.Type, a.At.Unix(), a.At.Nanosecond()}
			if seen[k] {
				t.Fatalf("fan-in holds %+v twice", a)
			}
			seen[k] = true
		}
	})
}
