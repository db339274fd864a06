package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/netip"
	"strconv"
	"sync"
	"time"

	"github.com/xatu-go/xatu/internal/telemetry"
	"github.com/xatu-go/xatu/internal/trace"
)

// CoordinatorConfig parameterizes a Coordinator.
type CoordinatorConfig struct {
	// Shards is the per-node engine shard count published in the routing
	// table. Zero = 4.
	Shards int
	// HeartbeatTimeout drops a node whose last heartbeat is older than
	// this on the next sweep. Zero = 5s.
	HeartbeatTimeout time.Duration
	// SweepEvery is the liveness sweep period. Zero = HeartbeatTimeout/4.
	// Negative disables the background sweeper (tests drive Sweep).
	SweepEvery time.Duration
	// DedupWindow is how long an (customer, type, at) alert identity
	// suppresses duplicates from other nodes. Zero = 10m.
	DedupWindow time.Duration
	// Telemetry, when non-nil, registers the xatu_cluster_* coordinator
	// families and backs the federated /metrics endpoint.
	Telemetry *telemetry.Registry
	// HTTPClient is used for table pushes and federation scrapes.
	// Nil = a 2s-timeout client.
	HTTPClient *http.Client
	// Now is the clock, injectable for liveness tests. Nil = time.Now.
	Now func() time.Time
	// Logf receives operational log lines. Nil = discard.
	Logf func(format string, args ...any)
	// TraceSample, when positive, enables deterministic 1-in-N flow
	// tracing on the coordinator side: alert fan-in records a StageFanin
	// span for sampled customers, and /v1/traces assembles the fleet's
	// per-node spans into cross-node timelines. Must match the nodes'
	// and router's rate. Zero disables tracing (assembly still works
	// over whatever the nodes serve).
	TraceSample int
}

type member struct {
	info     NodeInfo
	lastSeen time.Time
}

type dedupKey struct {
	customer string
	atype    int
	atSec    int64 // At as Unix seconds and nanoseconds: exact for every time
	atNsec   int
}

// seenAt is one accepted identity and when it was accepted, in the order
// the coordinator accepted them.
type seenAt struct {
	key dedupKey
	at  time.Time
}

// alertLogCap bounds the coordinator's alert log. Accepted alerts are
// numbered 1, 2, … in arrival order; the log holds the newest alertLogCap
// of them and a new one overwrites the oldest. Readers follow it by
// cursor (AlertsSince, GET /v1/alerts?since=N).
//
// A slot is an 80-byte WireAlert plus its customer and node strings
// (≈14 bytes in the runs named here), so a full log holds ≈6 MB. The most
// alerts any run accepts is 979 (xatu-fleet -soak -days 14); the 2-day
// smoke scenarios accept ≤590 and the benchmark's isp_paced 30–34, so
// each fits at least 60 times over. At the paper's ≤0.11 alerts per
// customer-day, a 1 000-customer ISP raises ≈110 a day: the log keeps
// ≈600 days, and a reader that polls more often than that loses none.
const alertLogCap = 1 << 16

// Coordinator owns fleet membership, the versioned routing table, and
// cross-node alert fan-in. All methods are safe for concurrent use.
type Coordinator struct {
	cfg    CoordinatorConfig
	client *http.Client

	mu      sync.Mutex
	members map[string]*member
	table   Table
	seen    map[dedupKey]time.Time
	// seenOrder queues the identities in seen by acceptance time, so the
	// prune pops exactly the ones past the dedup window.
	seenOrder []seenAt
	// log is the alert ring: it grows to alertLogCap, and the alert with
	// sequence s sits at log[(s-1)%alertLogCap]. logLast is the newest
	// sequence; every sequence up to logRead was handed to a reader or
	// overwritten.
	log     []WireAlert
	logLast uint64
	logRead uint64
	nodeUp  map[string]*telemetry.Gauge

	alertsTotal      *telemetry.Counter
	dedupedTotal     *telemetry.Counter
	overwrittenTotal *telemetry.Counter

	tracer *trace.Recorder // nil when TraceSample == 0
	flight *trace.Flight

	// Federation resilience: per-node scrape-failure counters
	// (registered lazily like nodeUp) and the last successfully scraped
	// body per node, re-served stale-marked while the node is
	// unreachable.
	scrapeFail  map[string]*telemetry.Counter
	scrapeCache map[string][]byte

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewCoordinator builds a coordinator (no listener; see StartServer).
func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.SweepEvery == 0 {
		cfg.SweepEvery = cfg.HeartbeatTimeout / 4
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 10 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:         cfg,
		client:      cfg.HTTPClient,
		members:     make(map[string]*member),
		table:       Table{Shards: cfg.Shards},
		seen:        make(map[dedupKey]time.Time),
		nodeUp:      make(map[string]*telemetry.Gauge),
		scrapeFail:  make(map[string]*telemetry.Counter),
		scrapeCache: make(map[string][]byte),
		tracer:      trace.NewRecorder("coordinator", trace.NewSampler(cfg.TraceSample), 0),
		flight:      trace.NewFlight("coordinator", 0),
		stop:        make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{Timeout: 2 * time.Second}
	}
	if reg := cfg.Telemetry; reg != nil {
		reg.GaugeFunc("xatu_cluster_routing_table_version",
			"Version of the current customer-to-node routing table.",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return float64(c.table.Version)
			})
		reg.GaugeFunc("xatu_cluster_nodes",
			"Engine nodes currently in the routing table.",
			func() float64 {
				c.mu.Lock()
				defer c.mu.Unlock()
				return float64(len(c.members))
			})
		c.alertsTotal = reg.Counter("xatu_cluster_alerts_total",
			"Alerts reported to the coordinator by engine nodes, pre-dedup.")
		c.dedupedTotal = reg.Counter("xatu_cluster_deduped_alerts_total",
			"Duplicate alerts suppressed by the (customer, type, at) dedup window.")
		c.overwrittenTotal = reg.Counter("xatu_cluster_alerts_overwritten_total",
			"Alerts the bounded alert log overwrote before any reader was handed them.")
	}
	if cfg.SweepEvery > 0 {
		c.wg.Add(1)
		go c.sweepLoop()
	}
	return c
}

func (c *Coordinator) sweepLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.SweepEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Sweep()
		}
	}
}

// Close stops the background sweeper. The coordinator keeps answering
// calls (an HTTP server wrapping it is closed separately).
func (c *Coordinator) Close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	return nil
}

// rebuildLocked recomputes the table from the member set and bumps the
// version. Callers hold c.mu and push the returned table after unlocking.
func (c *Coordinator) rebuildLocked() Table {
	nodes := make([]NodeInfo, 0, len(c.members))
	for _, m := range c.members {
		nodes = append(nodes, m.info)
	}
	sortNodes(nodes)
	c.table = Table{Version: c.table.Version + 1, Shards: c.cfg.Shards, Nodes: nodes}
	if c.cfg.Telemetry != nil {
		for id, g := range c.nodeUp {
			if _, ok := c.members[id]; ok {
				g.Set(1)
			} else {
				g.Set(0)
			}
		}
	}
	return c.table
}

// upGaugeLocked returns the per-node up gauge, registering it on first
// sight of the ID (the registry rejects duplicate registration).
func (c *Coordinator) upGaugeLocked(id string) *telemetry.Gauge {
	if c.cfg.Telemetry == nil {
		return nil
	}
	g, ok := c.nodeUp[id]
	if !ok {
		g = c.cfg.Telemetry.Gauge("xatu_cluster_node_up",
			"1 while the node is in the routing table, 0 after it left or timed out.",
			telemetry.Label{Name: "node", Value: id})
		c.nodeUp[id] = g
	}
	return g
}

// Join adds (or refreshes) a node and returns the current table. A
// duplicate join under the same ID and addresses is idempotent: it only
// refreshes liveness and does not bump the table version.
func (c *Coordinator) Join(info NodeInfo) (Table, error) {
	if info.ID == "" {
		return Table{}, errors.New("cluster: join with empty node ID")
	}
	now := c.cfg.Now()
	c.mu.Lock()
	if m, ok := c.members[info.ID]; ok && m.info == info {
		m.lastSeen = now
		t := c.table
		c.mu.Unlock()
		return t, nil
	}
	c.members[info.ID] = &member{info: info, lastSeen: now}
	if g := c.upGaugeLocked(info.ID); g != nil {
		g.Set(1)
	}
	t := c.rebuildLocked()
	c.mu.Unlock()
	c.cfg.Logf("cluster: node %s joined, table v%d (%d nodes)", info.ID, t.Version, len(t.Nodes))
	c.flight.Record("member", "node %s joined, table v%d (%d nodes)", info.ID, t.Version, len(t.Nodes))
	c.pushTable(t)
	return t, nil
}

// Leave removes a node. Unknown IDs are a no-op.
func (c *Coordinator) Leave(id string) {
	c.mu.Lock()
	if _, ok := c.members[id]; !ok {
		c.mu.Unlock()
		return
	}
	delete(c.members, id)
	t := c.rebuildLocked()
	c.mu.Unlock()
	c.cfg.Logf("cluster: node %s left, table v%d (%d nodes)", id, t.Version, len(t.Nodes))
	c.flight.Record("member", "node %s left, table v%d (%d nodes)", id, t.Version, len(t.Nodes))
	c.pushTable(t)
}

// Heartbeat refreshes a node's liveness and returns the current table
// version. ok is false for unknown IDs — the node must rejoin.
func (c *Coordinator) Heartbeat(id string) (version uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, found := c.members[id]
	if !found {
		return c.table.Version, false
	}
	m.lastSeen = c.cfg.Now()
	return c.table.Version, true
}

// Sweep drops every node whose heartbeat has expired and returns how
// many were dropped. A batch of expiries bumps the version exactly once;
// a second sweep with no new expiries changes nothing.
func (c *Coordinator) Sweep() int {
	now := c.cfg.Now()
	c.mu.Lock()
	var dropped []string
	for id, m := range c.members {
		if now.Sub(m.lastSeen) > c.cfg.HeartbeatTimeout {
			dropped = append(dropped, id)
		}
	}
	for _, id := range dropped {
		delete(c.members, id)
	}
	if len(dropped) == 0 {
		c.mu.Unlock()
		return 0
	}
	t := c.rebuildLocked()
	c.mu.Unlock()
	c.cfg.Logf("cluster: dropped %v (heartbeat timeout), table v%d", dropped, t.Version)
	// A heartbeat-timeout takeover is exactly the kind of incident the
	// fleet timeline must explain: dump the run-up.
	c.flight.Record("member", "dropped %v on heartbeat timeout, table v%d", dropped, t.Version)
	c.flight.Dump("heartbeat-timeout")
	c.pushTable(t)
	return len(dropped)
}

// Rebalance force-bumps the table version (same membership, same
// ownership under the stable hash) and re-pushes it, nudging any node
// with a stale view back into convergence.
func (c *Coordinator) Rebalance() Table {
	c.mu.Lock()
	t := c.rebuildLocked()
	c.mu.Unlock()
	c.cfg.Logf("cluster: rebalance, table v%d", t.Version)
	c.flight.Record("table", "rebalance forced table v%d", t.Version)
	c.pushTable(t)
	return t
}

// CurrentTable returns a snapshot of the routing table.
func (c *Coordinator) CurrentTable() Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table
}

// pushTable best-effort POSTs the table to every node; nodes that miss
// the push converge via the heartbeat version check.
func (c *Coordinator) pushTable(t Table) {
	for _, n := range t.Nodes {
		go func() {
			if err := call(c.client, n.API, "/v1/table", tableResponse{Table: t}, nil); err != nil {
				c.cfg.Logf("cluster: push table v%d to %s: %v", t.Version, n.ID, err)
			}
		}()
	}
}

// ReportAlerts folds a node's alert batch into the fleet-wide set,
// suppressing (customer, type, at) identities already seen within the
// dedup window. Returns how many alerts were accepted as new.
func (c *Coordinator) ReportAlerts(batch []WireAlert) int {
	now := c.cfg.Now()
	accepted := 0
	c.mu.Lock()
	for _, a := range batch {
		if c.alertsTotal != nil {
			c.alertsTotal.Inc()
		}
		k := dedupKey{customer: a.Customer, atype: a.Type, atSec: a.At.Unix(), atNsec: a.At.Nanosecond()}
		if first, ok := c.seen[k]; ok && now.Sub(first) <= c.cfg.DedupWindow {
			if c.dedupedTotal != nil {
				c.dedupedTotal.Inc()
			}
			continue
		}
		c.seen[k] = now
		c.seenOrder = append(c.seenOrder, seenAt{k, now})
		c.appendAlert(a)
		accepted++
		if c.tracer != nil {
			// Fan-in acceptance closes a sampled customer's timeline: the
			// span joins the node-side chain on the (customer, at) key.
			if addr, err := netip.ParseAddr(a.Customer); err == nil && c.tracer.Sampled(addr) {
				c.tracer.Record(addr, a.At, trace.StageFanin, 0,
					fmt.Sprintf("alert type %d from %s shard %d", a.Type, a.Node, a.Shard))
			}
		}
	}
	// Identities past the window no longer suppress: forget them, oldest
	// first. An identity accepted again is queued again, so only its
	// latest entry deletes it. The log keeps the newest alertLogCap.
	n := 0
	for _, q := range c.seenOrder {
		if now.Sub(q.at) <= c.cfg.DedupWindow {
			break
		}
		if c.seen[q.key].Equal(q.at) {
			delete(c.seen, q.key)
		}
		n++
	}
	c.seenOrder = c.seenOrder[n:]
	c.mu.Unlock()
	return accepted
}

// appendAlert adds an accepted alert to the log in O(1), overwriting the
// oldest once the log is full. Callers hold c.mu.
func (c *Coordinator) appendAlert(a WireAlert) {
	c.logLast++
	if len(c.log) < alertLogCap {
		c.log = append(c.log, a)
		return
	}
	if gone := c.logLast - alertLogCap; gone > c.logRead {
		c.logRead = gone
		if c.overwrittenTotal != nil {
			c.overwrittenTotal.Inc()
		}
	}
	c.log[(c.logLast-1)%alertLogCap] = a
}

// AlertsSince returns the held alerts with a sequence above since, in
// arrival order, with the oldest sequence still held and the newest (the
// cursor to pass next). oldest > since+1 means alerts were overwritten
// before this reader saw them.
func (c *Coordinator) AlertsSince(since uint64) (alerts []WireAlert, oldest, last uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.alertsSince(since)
}

func (c *Coordinator) alertsSince(since uint64) ([]WireAlert, uint64, uint64) {
	last := c.logLast
	oldest := last - uint64(len(c.log)) + 1
	from := max(min(since, last)+1, oldest)
	out := make([]WireAlert, last+1-from)
	i := (from - 1) % alertLogCap
	n := copy(out, c.log[i:min(i+uint64(len(out)), uint64(len(c.log)))])
	copy(out[n:], c.log) // the part past the ring's end
	if from <= c.logRead+1 {
		c.logRead = max(c.logRead, last)
	}
	return out, oldest, last
}

// Alerts returns every alert the log still holds, in arrival order.
func (c *Coordinator) Alerts() []WireAlert {
	alerts, _, _ := c.AlertsSince(0)
	return alerts
}

// Handler serves the coordinator control plane.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/join", func(w http.ResponseWriter, r *http.Request) {
		var req joinRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		t, err := c.Join(req.Node)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, tableResponse{Table: t})
	})
	mux.HandleFunc("/v1/leave", func(w http.ResponseWriter, r *http.Request) {
		c.Leave(r.URL.Query().Get("id"))
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		v, ok := c.Heartbeat(req.ID)
		if !ok {
			http.Error(w, "unknown node", http.StatusNotFound)
			return
		}
		writeJSON(w, heartbeatResponse{Version: v})
	})
	mux.HandleFunc("/v1/table", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, tableResponse{Table: c.CurrentTable()})
	})
	mux.HandleFunc("/v1/rebalance", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, tableResponse{Table: c.Rebalance()})
	})
	mux.HandleFunc("/v1/alerts", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			var req alertsRequest
			if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			c.ReportAlerts(req.Alerts)
			w.WriteHeader(http.StatusNoContent)
			return
		}
		var since uint64
		if q := r.URL.Query().Get("since"); q != "" {
			var err error
			if since, err = strconv.ParseUint(q, 10, 64); err != nil {
				http.Error(w, "since: "+err.Error(), http.StatusBadRequest)
				return
			}
		}
		var page alertsPage
		page.Alerts, page.Oldest, page.Last = c.AlertsSince(since)
		writeJSON(w, page)
	})
	mux.HandleFunc("/metrics", c.federatedMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		c.mu.Lock()
		v, n := c.table.Version, len(c.members)
		c.mu.Unlock()
		writeJSON(w, struct {
			nodeHealth
			Nodes int `json:"nodes"`
		}{nodeHealth{OK: true, Node: "coordinator", TableVersion: v}, n})
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(c.tracer.JSON())
	})
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(c.flight.JSON())
	})
	mux.HandleFunc("/v1/status", c.serveStatus)
	mux.HandleFunc("/v1/traces", c.serveTraces)
	mux.HandleFunc("/v1/incidents", c.serveIncidents)
	mux.HandleFunc("/console", serveConsole)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/" {
			http.Redirect(w, r, "/console", http.StatusFound)
			return
		}
		http.NotFound(w, r)
	})
	return mux
}

// StartServer binds the control plane on addr (":0" allowed) and serves
// it until srv.Close.
func (c *Coordinator) StartServer(addr string) (*httpServer, error) {
	return serveHTTP(addr, c.Handler())
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
