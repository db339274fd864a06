package cluster

import (
	"fmt"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/attackhist"
	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/netflow"
)

var testT0 = time.Date(2019, 7, 3, 12, 0, 0, 0, time.UTC)

func tinyEngineConfig(t testing.TB) engine.Config {
	t.Helper()
	mcfg := core.DefaultConfig(features.NumFeatures)
	mcfg.Hidden = 4
	mcfg.PoolShort, mcfg.PoolMed, mcfg.PoolLong = 1, 2, 4
	mcfg.Window = 4
	model, err := core.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	return engine.Config{
		Monitor: engine.MonitorConfig{
			Default: model,
			Extractor: &features.Extractor{
				Blocklists: blocklist.NewRegistry(),
				History:    attackhist.NewRegistry(),
				Geo:        func(netip.Addr) string { return "US" },
				A4Window:   240 * time.Hour,
				A5Window:   24 * time.Hour,
			},
			Threshold:         1.5,
			Types:             []ddos.AttackType{ddos.UDPFlood},
			MitigationTimeout: 10 * time.Minute,
		},
		Shards: 2,
	}
}

func clusterCustomers(n int) []netip.Addr {
	cs := make([]netip.Addr, n)
	for i := range cs {
		cs[i] = netip.MustParseAddr(fmt.Sprintf("203.0.113.%d", i+1))
	}
	return cs
}

func clusterUDPFlows(customer netip.Addr, step int) []netflow.Record {
	at := testT0.Add(time.Duration(step) * time.Minute)
	n := 1 + step%3
	flows := make([]netflow.Record, 0, n)
	for j := 0; j < n; j++ {
		flows = append(flows, netflow.Record{
			Src:     netip.MustParseAddr(fmt.Sprintf("11.1.%d.%d", step%250+1, j+1)),
			Dst:     customer,
			Proto:   netflow.ProtoUDP,
			SrcPort: uint16(1024 + step + j),
			DstPort: 80,
			Packets: uint32(10 + j),
			Bytes:   uint32(6000 + 100*j),
			Start:   at,
			End:     at.Add(30 * time.Second),
		})
	}
	return flows
}

func startTestNode(t *testing.T, id, coord string) *Node {
	t.Helper()
	n, err := StartNode(NodeConfig{
		ID:             id,
		Coordinator:    coord,
		Engine:         tinyEngineConfig(t),
		Step:           time.Minute,
		Lateness:       time.Hour,
		DecodeWorkers:  1,
		AggWorkers:     1,
		HeartbeatEvery: 50 * time.Millisecond,
		MigrateTimeout: 3 * time.Second,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.WaitReady(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return n
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestTwoNodeLiveMigration runs the full protocol in-process: one node
// warms detector state for every customer, a second node joins, the
// moved customers' channels stream to it via the subset checkpoint
// broadcast, the source drops them, forwarded steps keep flowing to the
// new owner, and alerts from both nodes fan in deduped.
func TestTwoNodeLiveMigration(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{
		Shards:           2,
		HeartbeatTimeout: 2 * time.Second,
		SweepEvery:       100 * time.Millisecond,
		DedupWindow:      time.Minute,
	})
	defer coord.Close()
	srv, err := coord.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	a := startTestNode(t, "node-a", srv.Addr())
	defer a.Kill()

	customers := clusterCustomers(8)
	const warmSteps = 12
	for s := 0; s < warmSteps; s++ {
		for _, c := range customers {
			if err := a.Submit(c, testT0.Add(time.Duration(s)*time.Minute), clusterUDPFlows(c, s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := a.Engine().Drain(); err != nil {
		t.Fatal(err)
	}
	if got := a.Engine().Stats().Channels; got != len(customers) {
		t.Fatalf("node-a has %d channels before split, want %d", got, len(customers))
	}

	b := startTestNode(t, "node-b", srv.Addr())
	defer b.Kill()

	// Ownership under the 2-node table.
	table := coord.CurrentTable()
	if len(table.Nodes) != 2 {
		t.Fatalf("table has %d nodes, want 2", len(table.Nodes))
	}
	wantB := 0
	for _, c := range customers {
		if table.OwnerID(c) == "node-b" {
			wantB++
		}
	}
	if wantB == 0 || wantB == len(customers) {
		t.Fatalf("degenerate split: %d/%d customers on node-b", wantB, len(customers))
	}

	// The migration completes: b holds exactly its customers' channels
	// (restored, not cold — MigrationsIn says they came from a segment),
	// and a dropped them.
	waitFor(t, 10*time.Second, "channel handoff", func() bool {
		return b.Engine().Stats().Channels == wantB &&
			a.Engine().Stats().Channels == len(customers)-wantB &&
			a.Stats().MigrationsOut == uint64(wantB) &&
			b.Stats().MigrationsIn == uint64(wantB)
	})
	if got := b.Stats().MigrationsIn; got != uint64(wantB) {
		t.Errorf("node-b restored %d channels from segments, want %d", got, wantB)
	}
	if got := a.Stats().MigrationsOut; got != uint64(wantB) {
		t.Errorf("node-a migrated out %d channels, want %d", got, wantB)
	}

	// Steps submitted at node-a for node-b's customers forward across.
	preSteps := b.Engine().Stats().Steps
	forwarded := 0
	for s := warmSteps; s < warmSteps+3; s++ {
		for _, c := range customers {
			if table.OwnerID(c) != "node-b" {
				continue
			}
			forwarded++
			if err := a.Submit(c, testT0.Add(time.Duration(s)*time.Minute), clusterUDPFlows(c, s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 10*time.Second, "forwarded steps", func() bool {
		return b.Engine().Stats().Steps >= preSteps+uint64(forwarded)
	})
	if got := a.Stats().StepsForwarded; got < uint64(forwarded) {
		t.Errorf("node-a forwarded %d steps, want ≥ %d", got, forwarded)
	}

	// The aggressive tiny threshold fires on warm UDP-flood streams, so
	// alerts from both nodes reach the coordinator's deduped fan-in.
	waitFor(t, 10*time.Second, "alert fan-in", func() bool {
		return len(coord.Alerts()) > 0
	})
	seen := make(map[string]bool)
	for _, al := range coord.Alerts() {
		k := fmt.Sprintf("%s/%d/%d", al.Customer, al.Type, al.At.UnixNano())
		if seen[k] {
			t.Fatalf("duplicate alert identity in fan-in: %s", k)
		}
		seen[k] = true
	}
}

// TestNodeKillHeartbeatTakeover pins the crash path: a killed node drops
// out via heartbeat timeout, the survivor's table shrinks back, and
// steps for every customer land locally again (cold for the ones whose
// state died).
func TestNodeKillHeartbeatTakeover(t *testing.T) {
	coord := NewCoordinator(CoordinatorConfig{
		Shards:           2,
		HeartbeatTimeout: 300 * time.Millisecond,
		SweepEvery:       50 * time.Millisecond,
	})
	defer coord.Close()
	srv, err := coord.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	a := startTestNode(t, "node-a", srv.Addr())
	defer a.Kill()
	b := startTestNode(t, "node-b", srv.Addr())
	twoNodeVersion := coord.CurrentTable().Version

	b.Kill()
	waitFor(t, 5*time.Second, "coordinator to drop node-b", func() bool {
		tab := coord.CurrentTable()
		return tab.Version > twoNodeVersion && len(tab.Nodes) == 1
	})
	waitFor(t, 5*time.Second, "node-a to apply the shrunk table", func() bool {
		return a.TableVersion() == coord.CurrentTable().Version
	})

	customers := clusterCustomers(8)
	// Wait out node-a's migrate window (nobody will send segments for a
	// vanished peer... the shrunk table has no peers, so no window), then
	// submit for every customer: all must process locally on node-a.
	pre := a.Engine().Stats().Steps
	for s := 0; s < 3; s++ {
		for _, c := range customers {
			if err := a.Submit(c, testT0.Add(time.Duration(s)*time.Minute), clusterUDPFlows(c, s)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, 5*time.Second, "all customers served by the survivor", func() bool {
		return a.Engine().Stats().Steps >= pre+uint64(3*len(customers))
	})
	if f := a.Stats().StepsForwarded; f != 0 {
		t.Errorf("survivor forwarded %d steps after takeover, want 0", f)
	}
}

// TestRouteCopiesWaitingSteps: route keeps its own copy of a step only
// when the step outlives the call — on a forwarder queue or in the
// inbound-migration buffer — so the caller (the ingest pipeline) may
// recycle its record slice as soon as Submit returns.
func TestRouteCopiesWaitingSteps(t *testing.T) {
	self := NodeInfo{ID: "a", API: "a:1"}
	peer := NodeInfo{ID: "b", API: "b:1"}
	table := &Table{Version: 1, Shards: 2, Nodes: []NodeInfo{self, peer}}
	fwd := &forwarder{id: peer.ID, api: peer.API, ch: make(chan WireStep, 1), done: make(chan struct{})}
	n := &Node{
		cfg:     NodeConfig{ID: self.ID},
		table:   table,
		fwd:     map[string]*forwarder{peer.ID: fwd},
		inbound: &inboundWindow{}, // a first join: every customer owned is gained
	}
	var mine, theirs netip.Addr
	for _, c := range clusterCustomers(64) {
		if id := table.OwnerID(c); id == self.ID && !mine.IsValid() {
			mine = c
		} else if id == peer.ID && !theirs.IsValid() {
			theirs = c
		}
	}
	for _, c := range []netip.Addr{mine, theirs} {
		flows := clusterUDPFlows(c, 2)
		want := slices.Clone(flows)
		if err := n.Submit(c, testT0, flows); err != nil {
			t.Fatal(err)
		}
		clear(flows) // the caller recycles its slice
		var got WireStep
		if c == mine {
			got = n.inbound.buf[0]
		} else {
			got = <-fwd.ch
		}
		if !reflect.DeepEqual(got.Flows, want) {
			t.Errorf("customer %v: the waiting step changed with the caller's slice", c)
		}
	}
}
