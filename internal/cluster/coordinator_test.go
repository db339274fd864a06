package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/telemetry"
)

// fakeNow is an injectable test clock.
type fakeNow struct{ ns atomic.Int64 }

func newFakeNow() *fakeNow {
	f := &fakeNow{}
	f.ns.Store(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC).UnixNano())
	return f
}
func (f *fakeNow) Now() time.Time          { return time.Unix(0, f.ns.Load()) }
func (f *fakeNow) Advance(d time.Duration) { f.ns.Add(int64(d)) }

// testNodeInfo fabricates a member whose addresses refuse connections —
// table pushes are best-effort, so membership logic runs without nodes.
func testNodeInfo(id string) NodeInfo {
	return NodeInfo{ID: id, API: "127.0.0.1:1", Ingest: "127.0.0.1:1", Metrics: ""}
}

func testCoordinator(clock *fakeNow) *Coordinator {
	return NewCoordinator(CoordinatorConfig{
		Shards:           2,
		HeartbeatTimeout: time.Second,
		SweepEvery:       -1, // tests drive Sweep explicitly
		DedupWindow:      time.Minute,
		Now:              clock.Now,
	})
}

// TestJoinIdempotent pins the duplicate-join contract: rejoining under
// the same ID and addresses refreshes liveness without a version bump;
// rejoining with changed addresses is a real membership change.
func TestJoinIdempotent(t *testing.T) {
	clock := newFakeNow()
	c := testCoordinator(clock)
	defer c.Close()

	t1, err := c.Join(testNodeInfo("a"))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := c.Join(testNodeInfo("a"))
	if err != nil {
		t.Fatal(err)
	}
	if t2.Version != t1.Version {
		t.Fatalf("duplicate join bumped version %d → %d", t1.Version, t2.Version)
	}
	moved := testNodeInfo("a")
	moved.API = "127.0.0.1:2"
	t3, err := c.Join(moved)
	if err != nil {
		t.Fatal(err)
	}
	if t3.Version <= t2.Version {
		t.Fatalf("address change did not bump version (%d → %d)", t2.Version, t3.Version)
	}
	if _, err := c.Join(NodeInfo{}); err == nil {
		t.Fatal("empty-ID join accepted")
	}
}

// TestSweepReassignsOnce pins that a heartbeat timeout reassigns the
// dead node's customers exactly once: one version bump when it expires,
// and further sweeps are no-ops.
func TestSweepReassignsOnce(t *testing.T) {
	clock := newFakeNow()
	c := testCoordinator(clock)
	defer c.Close()

	c.Join(testNodeInfo("a"))
	tb, _ := c.Join(testNodeInfo("b"))
	clock.Advance(800 * time.Millisecond)
	if _, ok := c.Heartbeat("a"); !ok {
		t.Fatal("heartbeat for known node rejected")
	}
	if _, ok := c.Heartbeat("ghost"); ok {
		t.Fatal("heartbeat for unknown node accepted")
	}
	clock.Advance(400 * time.Millisecond) // b is now 1.2s stale, a only 0.4s
	if dropped := c.Sweep(); dropped != 1 {
		t.Fatalf("first sweep dropped %d nodes, want 1", dropped)
	}
	after := c.CurrentTable()
	if after.Version != tb.Version+1 {
		t.Fatalf("sweep bumped version to %d, want %d", after.Version, tb.Version+1)
	}
	if len(after.Nodes) != 1 || after.Nodes[0].ID != "a" {
		t.Fatalf("table after sweep: %+v", after.Nodes)
	}
	if dropped := c.Sweep(); dropped != 0 {
		t.Fatalf("second sweep dropped %d nodes, want 0", dropped)
	}
	if v := c.CurrentTable().Version; v != after.Version {
		t.Fatalf("idle sweep bumped version %d → %d", after.Version, v)
	}
}

// TestVersionMonotonicUnderConcurrentRebalance hammers Rebalance from
// many goroutines while a reader polls: every observed version sequence
// must be non-decreasing and every Rebalance must return a distinct
// version (run under -race).
func TestVersionMonotonicUnderConcurrentRebalance(t *testing.T) {
	clock := newFakeNow()
	c := testCoordinator(clock)
	defer c.Close()
	c.Join(testNodeInfo("a"))
	c.Join(testNodeInfo("b"))

	const workers, per = 8, 25
	versions := make(chan uint64, workers*per)
	stopRead := make(chan struct{})
	var readerErr atomic.Value
	go func() {
		var last uint64
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			v := c.CurrentTable().Version
			if v < last {
				readerErr.Store(fmt.Sprintf("version went backwards: %d after %d", v, last))
				return
			}
			last = v
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				versions <- c.Rebalance().Version
			}
		}()
	}
	wg.Wait()
	close(stopRead)
	close(versions)
	if msg := readerErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	seen := make(map[uint64]bool)
	for v := range versions {
		if seen[v] {
			t.Fatalf("two rebalances returned the same version %d", v)
		}
		seen[v] = true
	}
	if len(seen) != workers*per {
		t.Fatalf("got %d distinct versions, want %d", len(seen), workers*per)
	}
}

// TestAlertDedup pins the at-most-once fan-in window: a (customer,
// type, at) identity is accepted once within the window, suppressed on
// repeats from any node, and accepted again after the window expires.
func TestAlertDedup(t *testing.T) {
	clock := newFakeNow()
	c := testCoordinator(clock)
	defer c.Close()

	at := clock.Now()
	a1 := WireAlert{Customer: "203.0.113.1", Type: 0, At: at, Node: "a"}
	a1dup := a1
	a1dup.Node = "b" // same identity, different reporter
	a2 := WireAlert{Customer: "203.0.113.2", Type: 0, At: at, Node: "a"}

	if got := c.ReportAlerts([]WireAlert{a1, a1dup, a2}); got != 2 {
		t.Fatalf("accepted %d alerts, want 2", got)
	}
	if got := c.ReportAlerts([]WireAlert{a1}); got != 0 {
		t.Fatalf("replay within window accepted %d alerts, want 0", got)
	}
	if got := len(c.Alerts()); got != 2 {
		t.Fatalf("alert list has %d entries, want 2", got)
	}
	clock.Advance(2 * time.Minute) // past the 1m dedup window
	if got := c.ReportAlerts([]WireAlert{a1}); got != 1 {
		t.Fatalf("replay after window accepted %d alerts, want 1", got)
	}
}

// TestAlertDedupForgets pins the fan-in's memory: once an identity has
// been accepted longer than DedupWindow ago it is forgotten, so 5 000
// alerts an hour apart under a one-minute window leave one identity in
// the dedup set. The alert log, below its bound, keeps all of them.
func TestAlertDedupForgets(t *testing.T) {
	clock := newFakeNow()
	c := testCoordinator(clock)
	defer c.Close()
	for i := 0; i < 5000; i++ {
		a := WireAlert{Customer: "203.0.113.1", Type: 0, At: clock.Now(), Node: "a"}
		if got := c.ReportAlerts([]WireAlert{a}); got != 1 {
			t.Fatalf("alert %d: accepted %d, want 1", i, got)
		}
		clock.Advance(time.Hour)
	}
	c.mu.Lock()
	seen, queued, alerts := len(c.seen), len(c.seenOrder), len(c.log)
	c.mu.Unlock()
	if seen != 1 || queued != 1 || alerts != 5000 {
		t.Fatalf("seen=%d queued=%d alerts=%d, want 1, 1 and 5000", seen, queued, alerts)
	}
}

// TestAlertLogRing overfills the bounded alert log: it keeps the newest
// alertLogCap alerts in sequence order, a cursor read (in process and over
// GET /v1/alerts?since=N) reports the oldest sequence still held, and the
// counter counts only the overwritten alerts no reader was handed.
func TestAlertLogRing(t *testing.T) {
	clock := newFakeNow()
	c := NewCoordinator(CoordinatorConfig{SweepEvery: -1, Now: clock.Now, Telemetry: telemetry.NewRegistry()})
	defer c.Close()
	at := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	alert := func(i int) WireAlert {
		return WireAlert{Customer: "203.0.113.1", At: at.Add(time.Duration(i) * time.Second), Node: "a"}
	}
	report := func(from, to int) {
		batch := make([]WireAlert, 0, to-from)
		for i := from; i < to; i++ {
			batch = append(batch, alert(i))
		}
		if got := c.ReportAlerts(batch); got != to-from {
			t.Fatalf("accepted %d alerts, want %d", got, to-from)
		}
	}

	report(0, 5)
	if got, oldest, last := c.AlertsSince(0); len(got) != 5 || oldest != 1 || last != 5 {
		t.Fatalf("read %d alerts, oldest %d, last %d; want 5, 1, 5", len(got), oldest, last)
	}
	const extra = 10
	report(5, alertLogCap+5+extra) // overwrites sequences 1..15; 1..5 were read
	got, oldest, last := c.AlertsSince(5)
	if oldest != 6+extra || last != alertLogCap+5+extra || len(got) != alertLogCap {
		t.Fatalf("oldest %d, last %d, %d alerts; want %d, %d, %d",
			oldest, last, len(got), 6+extra, alertLogCap+5+extra, alertLogCap)
	}
	if !got[0].At.Equal(alert(5+extra).At) || !got[len(got)-1].At.Equal(alert(alertLogCap+4+extra).At) {
		t.Fatalf("held %v..%v, want the alerts at %v..%v", got[0].At, got[len(got)-1].At,
			alert(5+extra).At, alert(alertLogCap+4+extra).At)
	}
	if n := c.overwrittenTotal.Value(); n != extra {
		t.Fatalf("overwritten counter %d, want %d (sequences 6..15)", n, extra)
	}
	report(alertLogCap+5+extra, alertLogCap+6+extra) // overwrites 16, which was read
	if n := c.overwrittenTotal.Value(); n != extra {
		t.Fatalf("overwriting a read alert moved the counter to %d", n)
	}

	srv, err := c.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/v1/alerts?since=%d", srv.Addr(), last-1))
	if err != nil {
		t.Fatal(err)
	}
	var page alertsPage
	err = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(page.Alerts) != 2 || page.Oldest != 7+extra || page.Last != last+1 ||
		!page.Alerts[1].At.Equal(alert(alertLogCap+5+extra).At) {
		t.Fatalf("GET since=%d: %d alerts, oldest %d, last %d; want 2, %d, %d",
			last-1, len(page.Alerts), page.Oldest, page.Last, 7+extra, last+1)
	}
	resp, err = http.Get("http://" + srv.Addr() + "/v1/alerts?since=x")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET since=x answered %d, want 400", resp.StatusCode)
	}
}

// TestAlertDedupKeyExact pins the dedup identity's time: two alerts 2^64
// ns (≈584.5 years) apart, whose UnixNano values coincide, are two
// identities.
func TestAlertDedupKeyExact(t *testing.T) {
	clock := newFakeNow()
	c := testCoordinator(clock)
	defer c.Close()
	at := time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)
	later := at.Add(math.MaxInt64).Add(math.MaxInt64).Add(2)
	if at.UnixNano() != later.UnixNano() {
		t.Fatalf("fixture: UnixNano %d and %d differ", at.UnixNano(), later.UnixNano())
	}
	batch := []WireAlert{
		{Customer: "203.0.113.1", Type: 0, At: at, Node: "a"},
		{Customer: "203.0.113.1", Type: 0, At: later, Node: "a"},
	}
	if got := c.ReportAlerts(batch); got != 2 {
		t.Fatalf("accepted %d alerts %v and %v, want 2", got, at, later)
	}
}

// TestInjectNodeLabel pins the structural label injection, including
// label values containing spaces and braces (a last-space split would
// corrupt these).
func TestInjectNodeLabel(t *testing.T) {
	cases := [][2]string{
		{`xatu_up 1`, `xatu_up{node="n1"} 1`},
		{`xatu_lat{le="0.5"} 3`, `xatu_lat{node="n1",le="0.5"} 3`},
		{`xatu_x{msg="a b {c}"} 2`, `xatu_x{node="n1",msg="a b {c}"} 2`},
	}
	for _, tc := range cases {
		if got := injectNodeLabel(tc[0], "n1"); got != tc[1] {
			t.Errorf("injectNodeLabel(%q) = %q, want %q", tc[0], got, tc[1])
		}
	}
}

// TestFederatedMetrics merges the coordinator's own families with a
// scraped node exposition: node samples carry the node label and
// duplicate # HELP / # TYPE headers collapse.
func TestFederatedMetrics(t *testing.T) {
	exposition := "# HELP xatu_engine_steps_total Steps.\n# TYPE xatu_engine_steps_total counter\nxatu_engine_steps_total 42\n"
	fake, err := serveHTTP("127.0.0.1:0", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, exposition)
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer fake.Close()

	clock := newFakeNow()
	c := testCoordinator(clock)
	defer c.Close()
	info := testNodeInfo("n1")
	info.Metrics = fake.Addr()
	c.Join(info)
	info2 := testNodeInfo("n2")
	info2.Metrics = fake.Addr() // same families from a second node
	c.Join(info2)

	srv, err := c.StartServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.Contains(body, `xatu_engine_steps_total{node="n1"} 42`) {
		t.Errorf("missing n1-labeled sample in:\n%s", body)
	}
	if !strings.Contains(body, `xatu_engine_steps_total{node="n2"} 42`) {
		t.Errorf("missing n2-labeled sample in:\n%s", body)
	}
	if got := strings.Count(body, "# HELP xatu_engine_steps_total"); got != 1 {
		t.Errorf("HELP header emitted %d times, want 1:\n%s", got, body)
	}
}
