package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/ingest"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/telemetry"
	"github.com/xatu-go/xatu/internal/trace"
)

// NodeConfig parameterizes one engine node.
type NodeConfig struct {
	// ID is the node's stable identity across restarts.
	ID string
	// Coordinator is the coordinator control-plane address (host:port).
	// Empty = standalone: the node serves every customer under a static
	// one-node table and runs no join, heartbeat, leave or alert POST.
	Coordinator string
	// APIAddr / IngestAddr / TelemetryAddr are listen addresses; empty =
	// "127.0.0.1:0" (ephemeral, resolved addresses are advertised). A
	// standalone node opens no cluster API and ignores APIAddr.
	APIAddr       string
	IngestAddr    string
	TelemetryAddr string

	// Engine configures the node's supervised detection engine. Its
	// Telemetry field is filled with the node registry when nil.
	Engine engine.Config

	// Ingest pipeline sizing; zero values take the pipeline defaults.
	DecodeWorkers int
	AggWorkers    int
	Step          time.Duration
	Lateness      time.Duration
	QueueDepth    int

	// HeartbeatEvery is the coordinator heartbeat period. Zero = 1s.
	HeartbeatEvery time.Duration
	// MigrateTimeout bounds how long steps for gained customers buffer
	// while waiting for migration segments from peers that may be dead.
	// Zero = 5s.
	MigrateTimeout time.Duration
	// HTTPClient is used for all control-plane and peer traffic.
	// Nil = a 2s-timeout client.
	HTTPClient *http.Client
	// Logf receives operational log lines. Nil = discard.
	Logf func(format string, args ...any)

	// TraceSample, when positive, enables deterministic 1-in-N flow
	// tracing on this node: the ingest pipeline and engine record span
	// events for sampled customers, forwarded/buffered steps are traced
	// through the routing path, and the spans are served on the
	// telemetry listener's /debug/trace for coordinator-side assembly.
	// Every node (and the router's exporters) must use the same rate for
	// cross-node timelines to line up. Zero disables tracing.
	TraceSample int

	// Checkpoint, when set, is the node's detector-state file: restored
	// at start if present (then cut to the customers the first routing
	// table gives this node), rewritten from the engine's background
	// snapshots every CheckpointEvery (zero = 1m) and at a barrier on a
	// graceful Close. Every save is tmp + rename.
	Checkpoint      string
	CheckpointEvery time.Duration
	// GapFill reports each step a customer skipped since its previous one
	// to the engine as missing, on the node that owns the customer.
	GapFill bool
	// OnAlert, when set, is called on the alert pump for every alert.
	OnAlert func(engine.AlertEvent)
}

// inboundWindow is the buffering side of one table transition: steps for
// customers gained in the transition are held until every potential
// source node has delivered its migration segment (or the timeout
// fires), so restored checkpoint state is never clobbered by — or
// applied on top of — steps that raced past the handoff.
type inboundWindow struct {
	old     *Table          // table before the transition (nil on first join)
	pending map[string]bool // peer IDs whose migration segment is still due
	buf     []WireStep
	timer   *time.Timer
}

// forwarder ships steps to one peer node, batched FIFO on a dedicated
// goroutine so the ingest path never blocks on peer HTTP.
type forwarder struct {
	id   string
	api  string
	ch   chan WireStep
	done chan struct{}
}

// NodeStats is a snapshot of the node's cluster-layer counters.
type NodeStats struct {
	TableVersion    uint64
	MigrationsOut   uint64 // channels checkpointed away to successors
	MigrationsIn    uint64 // channels restored from peers' segments
	StepsForwarded  uint64
	StepsDropped    uint64 // forward-queue overflow + hop-limit + no-table drops
	StepsBuffered   uint64 // steps held (then flushed) by inbound windows
	MigrationPauses uint64 // outbound migrations with at least one channel

	// MigrationPauseTotal / MigrationPauseMax aggregate the outbound
	// migration pauses (drain + subset checkpoint + segment hand-off).
	MigrationPauseTotal time.Duration
	MigrationPauseMax   time.Duration
}

// Node is one engine node: the supervised Engine plus ingest pipeline
// plus telemetry server, wrapped with the cluster control plane (table
// application, step routing/forwarding, live migration, alert fan-out,
// heartbeats).
type Node struct {
	cfg    NodeConfig
	client *http.Client
	info   NodeInfo

	eng    *engine.Engine
	pipe   *ingest.Pipeline
	udp    net.PacketConn
	tsrv   *telemetry.Server
	api    *httpServer
	reg    *telemetry.Registry
	tracer *trace.Recorder // nil when TraceSample == 0
	flight *trace.Flight
	gaps   *gapFiller // nil unless GapFill

	restored   bool       // the engine started from cfg.Checkpoint
	ckptMu     sync.Mutex // serializes saves
	ckptClosed bool       // the barrier save on Close is written: no save may follow

	mu      sync.Mutex
	table   *Table
	inbound *inboundWindow
	fwd     map[string]*forwarder
	killed  bool
	leaving bool // graceful Close in progress: stop applying tables

	migrationsOut  atomic.Uint64
	migrationsIn   atomic.Uint64
	stepsForwarded atomic.Uint64
	stepsDropped   atomic.Uint64
	stepsBuffered  atomic.Uint64
	pauses         atomic.Uint64
	pauseTotalNS   atomic.Int64
	pauseMaxNS     atomic.Int64

	migrationsTotal *telemetry.Counter
	migrationPause  *telemetry.Histogram

	joined    chan struct{} // closed once the first table is applied
	joinOnce  sync.Once
	stop      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
	ingestCtx context.CancelFunc
}

// StartNode builds the node stack, restores cfg.Checkpoint, joins the
// coordinator (or installs the standalone table), and starts serving.
// The returned node is live; use WaitReady to block until the first
// routing table has been applied.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("cluster: node needs an ID")
	}
	if cfg.APIAddr == "" {
		cfg.APIAddr = "127.0.0.1:0"
	}
	if cfg.IngestAddr == "" {
		cfg.IngestAddr = "127.0.0.1:0"
	}
	if cfg.TelemetryAddr == "" {
		cfg.TelemetryAddr = "127.0.0.1:0"
	}
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.MigrateTimeout <= 0 {
		cfg.MigrateTimeout = 5 * time.Second
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = time.Minute
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	reg := cfg.Engine.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
		cfg.Engine.Telemetry = reg
	}
	n := &Node{
		cfg:    cfg,
		client: cfg.HTTPClient,
		reg:    reg,
		fwd:    make(map[string]*forwarder),
		joined: make(chan struct{}),
		stop:   make(chan struct{}),
	}
	if n.client == nil {
		n.client = &http.Client{Timeout: 2 * time.Second}
	}
	n.registerMetrics(reg)

	// The flight recorder always runs (it is cheap and most valuable at
	// crash time); the flow tracer only when sampling is enabled.
	n.tracer = trace.NewRecorder(cfg.ID, trace.NewSampler(cfg.TraceSample), 0)
	n.flight = trace.NewFlight(cfg.ID, 0)
	cfg.Engine.Trace = n.tracer
	cfg.Engine.Flight = n.flight
	n.cfg.Engine = cfg.Engine

	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return nil, err
	}
	n.eng = eng
	if cfg.GapFill {
		n.gaps = newGapFiller(eng, cfg.Step)
	}
	if err := n.restore(); err != nil {
		eng.Close()
		return nil, err
	}

	pipe, err := ingest.New(ingest.Config{
		DecodeWorkers: cfg.DecodeWorkers,
		AggWorkers:    cfg.AggWorkers,
		Step:          cfg.Step,
		Lateness:      cfg.Lateness,
		QueueDepth:    cfg.QueueDepth,
		Sink:          n,
		Telemetry:     reg,
		Trace:         n.tracer,
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	n.pipe = pipe

	udp, err := net.ListenPacket("udp", cfg.IngestAddr)
	if err != nil {
		n.teardownEarly()
		return nil, err
	}
	if uc, ok := udp.(*net.UDPConn); ok {
		_ = uc.SetReadBuffer(8 << 20) // absorb replay/harness bursts on loopback
	}
	n.udp = udp
	ctx, cancel := context.WithCancel(context.Background())
	n.ingestCtx = cancel
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = pipe.Serve(ctx, udp)
	}()

	tsrv, err := telemetry.NewServer(cfg.TelemetryAddr, reg, func() telemetry.Health {
		h := eng.Health()
		return telemetry.Health{OK: h.OK, Detail: struct {
			Node         string `json:"node"`
			TableVersion uint64 `json:"tableVersion"`
			engine.EngineHealth
		}{cfg.ID, n.TableVersion(), h}}
	})
	if err != nil {
		n.teardownEarly()
		return nil, err
	}
	n.tsrv = tsrv
	tsrv.Handle("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(n.tracer.JSON())
	})
	tsrv.Handle("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(n.flight.JSON())
	})

	n.info = NodeInfo{
		ID:      cfg.ID,
		Ingest:  udp.LocalAddr().String(),
		Metrics: tsrv.Addr(),
	}
	// A standalone node takes no table pushes, forwarded steps or
	// migration segments, so it opens no control plane.
	if cfg.Coordinator != "" {
		api, err := serveHTTP(cfg.APIAddr, n.handler())
		if err != nil {
			n.teardownEarly()
			return nil, err
		}
		n.api = api
		n.info.API = api.Addr()
	}

	n.wg.Add(1)
	go n.alertPump()
	if cfg.Checkpoint != "" {
		n.wg.Add(1)
		go n.checkpointLoop()
	}
	if cfg.Coordinator == "" {
		// NodeOf(c, 1, n) == (0, ShardOf(c, n)): the engine's own routing.
		n.applyTable(Table{Version: 1, Shards: eng.Shards(), Nodes: []NodeInfo{n.info}})
		return n, nil
	}
	n.wg.Add(1)
	go n.heartbeatLoop()
	if err := n.join(); err != nil {
		// The heartbeat loop keeps retrying the join; surfacing the first
		// failure would tear down a node that only raced the coordinator.
		cfg.Logf("cluster: node %s initial join: %v (will retry)", cfg.ID, err)
	}
	return n, nil
}

func (n *Node) registerMetrics(reg *telemetry.Registry) {
	reg.GaugeFunc("xatu_cluster_routing_table_version",
		"Version of the node's applied routing table.",
		func() float64 { return float64(n.TableVersion()) })
	n.migrationsTotal = reg.Counter("xatu_cluster_migrations_total",
		"Customer channels migrated off this node to a successor.")
	n.migrationPause = reg.Histogram("xatu_cluster_migration_pause_seconds",
		"Outbound migration pause: drain + subset checkpoint + segment hand-off.")
	reg.CounterFunc("xatu_cluster_steps_forwarded_total",
		"Steps forwarded to the owning node per the routing table.",
		func() float64 { return float64(n.stepsForwarded.Load()) })
	reg.CounterFunc("xatu_cluster_steps_dropped_total",
		"Steps dropped by the cluster layer (no table, hop limit, forward overflow).",
		func() float64 { return float64(n.stepsDropped.Load()) })
	reg.CounterFunc("xatu_cluster_migrated_in_total",
		"Customer channels restored from peers' migration segments.",
		func() float64 { return float64(n.migrationsIn.Load()) })
}

// teardownEarly unwinds a partially-built node on StartNode failure.
func (n *Node) teardownEarly() {
	if n.ingestCtx != nil {
		n.ingestCtx()
	}
	if n.udp != nil {
		n.udp.Close()
	}
	if n.pipe != nil {
		n.pipe.Close()
	}
	if n.eng != nil {
		n.eng.Close()
	}
	if n.tsrv != nil {
		n.tsrv.Close()
	}
}

// Info returns the node's advertised identity and resolved addresses.
func (n *Node) Info() NodeInfo { return n.info }

// Engine exposes the node's engine (harness checkpoint comparisons).
func (n *Node) Engine() *engine.Engine { return n.eng }

// Flight exposes the node's flight recorder (harness assertions).
func (n *Node) Flight() *trace.Flight { return n.flight }

// TableVersion returns the applied routing-table version (0 before the
// first table).
func (n *Node) TableVersion() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.table == nil {
		return 0
	}
	return n.table.Version
}

// Stats snapshots the node's cluster-layer counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		TableVersion:        n.TableVersion(),
		MigrationsOut:       n.migrationsOut.Load(),
		MigrationsIn:        n.migrationsIn.Load(),
		StepsForwarded:      n.stepsForwarded.Load(),
		StepsDropped:        n.stepsDropped.Load(),
		StepsBuffered:       n.stepsBuffered.Load(),
		MigrationPauses:     n.pauses.Load(),
		MigrationPauseTotal: time.Duration(n.pauseTotalNS.Load()),
		MigrationPauseMax:   time.Duration(n.pauseMaxNS.Load()),
	}
}

// WaitReady blocks until the node has applied its first routing table.
func (n *Node) WaitReady(timeout time.Duration) error {
	select {
	case <-n.joined:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("cluster: node %s not ready after %v", n.cfg.ID, timeout)
	}
}

// Submit implements ingest.Submitter: locally aggregated steps enter the
// same routing path as steps forwarded by peers. flows is valid only for
// the call; route copies a step it keeps past it.
func (n *Node) Submit(customer netip.Addr, at time.Time, flows []netflow.Record) error {
	return n.route(WireStep{Customer: customer, At: at, Flows: flows}, false)
}

// route delivers one step per the current table: buffer (mid-migration
// gain), submit locally (owned), or forward (owned elsewhere). The step's
// flows are the caller's, valid only for the call, so a step that waits —
// in the inbound-migration buffer or on a forwarder queue — holds a copy.
// A forwarded step is dropped when its forwarder's queue is full, unless
// wait is set: then route waits for room.
func (n *Node) route(step WireStep, wait bool) error {
	n.mu.Lock()
	if n.killed || n.table == nil || len(n.table.Nodes) == 0 {
		n.mu.Unlock()
		n.stepsDropped.Add(1)
		return nil
	}
	t := n.table
	owner, _ := t.Owner(step.Customer)
	if owner.ID == n.cfg.ID {
		if w := n.inbound; w != nil && n.gainedLocked(w, step.Customer) {
			step.Flows = slices.Clone(step.Flows)
			w.buf = append(w.buf, step)
			n.stepsBuffered.Add(1)
			n.mu.Unlock()
			if n.tracer.Sampled(step.Customer) {
				n.tracer.Record(step.Customer, step.At, trace.StageBuffer, 0, "inbound migration window")
			}
			return nil
		}
		n.mu.Unlock()
		if n.gaps != nil {
			return n.gaps.Submit(step.Customer, step.At, step.Flows)
		}
		return n.eng.Submit(step.Customer, step.At, step.Flows)
	}
	if step.Hops >= maxHops {
		n.mu.Unlock()
		n.stepsDropped.Add(1)
		return nil
	}
	step.Hops++
	f := n.forwarderLocked(owner)
	n.mu.Unlock()
	step.Flows = slices.Clone(step.Flows)
	if !f.send(step, wait, n.stop) {
		n.stepsDropped.Add(1)
		return nil
	}
	n.stepsForwarded.Add(1)
	if n.tracer.Sampled(step.Customer) {
		n.tracer.Record(step.Customer, step.At, trace.StageForward, 0, "to "+f.id)
	}
	return nil
}

// send queues one step (or a flush marker) for the peer. Without wait it
// gives up at once when the queue is full; with wait it gives up only when
// the forwarder or the node stops.
func (f *forwarder) send(step WireStep, wait bool, stop chan struct{}) bool {
	if !wait {
		select {
		case f.ch <- step:
			return true
		default:
			return false
		}
	}
	select {
	case f.ch <- step:
		return true
	case <-f.done:
	case <-stop:
	}
	return false
}

// awaitForwarders returns once every step queued on a forwarder before
// the call has been posted, or its forwarder has stopped: a flush marker
// rides each FIFO queue behind the steps.
func (n *Node) awaitForwarders() {
	n.mu.Lock()
	fwds := make([]*forwarder, 0, len(n.fwd))
	for _, f := range n.fwd {
		fwds = append(fwds, f)
	}
	n.mu.Unlock()
	for _, f := range fwds {
		ack := make(chan struct{})
		if f.send(WireStep{ack: ack}, true, n.stop) {
			select {
			case <-ack:
			case <-f.done:
			case <-n.stop:
			}
		}
	}
}

// gainedLocked reports whether the customer became ours in the window's
// transition — owned by us now but not in the window's old table (a
// first join has no old table, so everything owned is gained).
func (n *Node) gainedLocked(w *inboundWindow, customer netip.Addr) bool {
	if w.old == nil || len(w.old.Nodes) == 0 {
		return true
	}
	return w.old.OwnerID(customer) != n.cfg.ID
}

func (n *Node) forwarderLocked(peer NodeInfo) *forwarder {
	f, ok := n.fwd[peer.ID]
	if ok && f.api == peer.API {
		return f
	}
	if ok {
		close(f.done)
	}
	f = &forwarder{id: peer.ID, api: peer.API, ch: make(chan WireStep, 1024), done: make(chan struct{})}
	n.fwd[peer.ID] = f
	n.wg.Add(1)
	go n.runForwarder(f)
	return f
}

// runForwarder drains one peer's queue in FIFO batches of up to 128
// steps per POST; a failed batch is retried once, then dropped.
func (n *Node) runForwarder(f *forwarder) {
	defer n.wg.Done()
	for {
		var first WireStep
		select {
		case <-f.done:
			return
		case <-n.stop:
			return
		case first = <-f.ch:
		}
		batch := []WireStep{first}
		for len(batch) < 128 && batch[len(batch)-1].ack == nil {
			select {
			case s := <-f.ch:
				batch = append(batch, s)
			default:
				goto send
			}
		}
	send:
		var ack chan struct{}
		if last := batch[len(batch)-1]; last.ack != nil {
			ack, batch = last.ack, batch[:len(batch)-1]
		}
		post := func() error { return call(n.client, f.api, "/v1/steps", stepsRequest{Steps: batch}, nil) }
		if len(batch) > 0 && post() != nil {
			time.Sleep(50 * time.Millisecond)
			if err := post(); err != nil {
				n.stepsDropped.Add(uint64(len(batch)))
				n.cfg.Logf("cluster: node %s forward to %s: %v", n.cfg.ID, f.id, err)
			}
		}
		if ack != nil {
			close(ack)
		}
	}
}

// applyTable installs a newer routing table: it opens an inbound window
// awaiting migration segments from every peer, rolls any previous
// window's buffer into the new one, and kicks off outbound migration of
// customers this transition took away from us. It refuses a table that
// routing could not use (Table.validate) and keeps the current one.
func (n *Node) applyTable(t Table) error {
	if err := t.validate(); err != nil {
		n.cfg.Logf("cluster: node %s refused routing table v%d: %v", n.cfg.ID, t.Version, err)
		n.flight.Record("table", "refused routing table v%d: %v", t.Version, err)
		return err
	}
	n.mu.Lock()
	if n.killed || n.leaving || (n.table != nil && t.Version <= n.table.Version) {
		n.mu.Unlock()
		return nil
	}
	old := n.table
	n.table = &t
	// Forwarders to nodes that left the table die with their queues.
	inTable := make(map[string]bool, len(t.Nodes))
	for _, nd := range t.Nodes {
		inTable[nd.ID] = true
	}
	for id, f := range n.fwd {
		if !inTable[id] {
			close(f.done)
			delete(n.fwd, id)
		}
	}
	var rolled []WireStep
	if n.inbound != nil {
		n.inbound.timer.Stop()
		rolled = n.inbound.buf
		n.inbound = nil
	}
	pending := make(map[string]bool, len(t.Nodes))
	for _, nd := range t.Nodes {
		if nd.ID != n.cfg.ID {
			pending[nd.ID] = true
		}
	}
	if len(pending) > 0 {
		w := &inboundWindow{old: old, pending: pending, buf: rolled}
		w.timer = time.AfterFunc(n.cfg.MigrateTimeout, func() { n.closeInbound(w, "timeout") })
		n.inbound = w
		rolled = nil
	}
	// Register the outbound migration before releasing the lock: teardown
	// sets killed under the same lock, so wg.Add cannot race wg.Wait.
	n.wg.Add(1)
	n.mu.Unlock()
	n.joinOnce.Do(func() { close(n.joined) })
	n.cfg.Logf("cluster: node %s applied table v%d (%d nodes)", n.cfg.ID, t.Version, len(t.Nodes))
	n.flight.Record("table", "applied routing table v%d (%d nodes)", t.Version, len(t.Nodes))
	if old == nil && n.restored {
		me := n.cfg.ID
		if _, err := n.eng.RemoveCustomers(func(c netip.Addr) bool { return t.OwnerID(c) != me }); err != nil {
			n.cfg.Logf("cluster: node %s cutting restored state to table v%d: %v", me, t.Version, err)
		}
	}
	// A single-node table has nobody to wait for: flush anything rolled.
	n.flushSteps(rolled)
	go func() {
		defer n.wg.Done()
		n.migrateOut(old, &t)
	}()
	return nil
}

// closeInbound ends one buffering window and replays its steps through
// route in deterministic (customer, at) order, fixing any interleaving
// between the direct and forwarded arrival paths.
func (n *Node) closeInbound(w *inboundWindow, reason string) {
	n.mu.Lock()
	if n.inbound != w {
		n.mu.Unlock()
		return
	}
	w.timer.Stop()
	n.inbound = nil
	buf := w.buf
	n.mu.Unlock()
	if len(buf) > 0 {
		n.cfg.Logf("cluster: node %s inbound window closed (%s), flushing %d steps", n.cfg.ID, reason, len(buf))
	}
	n.flight.Record("window", "inbound window closed (%s): %d buffered steps flushed", reason, len(buf))
	n.flushSteps(buf)
}

func (n *Node) flushSteps(buf []WireStep) {
	sort.SliceStable(buf, func(i, j int) bool {
		if c := buf[i].Customer.Compare(buf[j].Customer); c != 0 {
			return c < 0
		}
		return buf[i].At.Before(buf[j].At)
	})
	for _, s := range buf {
		_ = n.route(s, false)
	}
}

// migrateOut hands off the customers this table transition moved away:
// one drain + subset checkpoint, broadcast to every peer in the new
// table (each filters by its own ownership), then drop the moved
// channels. Peers' inbound windows count down on our segment whether or
// not it carries channels for them.
func (n *Node) migrateOut(old, cur *Table) {
	me := n.cfg.ID
	pred := func(c netip.Addr) bool {
		if old == nil || len(old.Nodes) == 0 {
			return false
		}
		return old.OwnerID(c) == me && cur.OwnerID(c) != me
	}
	start := time.Now()
	var seg bytes.Buffer
	moved, err := n.eng.CheckpointCustomers(&seg, pred)
	if err != nil {
		n.cfg.Logf("cluster: node %s subset checkpoint: %v", me, err)
		return
	}
	allDelivered := true
	for _, nd := range cur.Nodes {
		if nd.ID == me {
			continue
		}
		if err := n.postMigrate(nd, cur.Version, seg.Bytes()); err != nil {
			allDelivered = false
			n.cfg.Logf("cluster: node %s migrate to %s: %v", me, nd.ID, err)
		}
	}
	if moved == 0 {
		return
	}
	if !allDelivered {
		// Keep the channels: the customers' new owners never got the
		// state, and serving stale state beats serving none until the
		// next table version retries the handoff.
		return
	}
	if _, err := n.eng.RemoveCustomers(pred); err != nil {
		n.cfg.Logf("cluster: node %s removing migrated channels: %v", me, err)
		return
	}
	n.gaps.forget(pred) // a returning customer arrives with state built elsewhere
	pause := time.Since(start)
	n.migrationsOut.Add(uint64(moved))
	n.migrationsTotal.Add(uint64(moved))
	n.migrationPause.Observe(pause)
	n.pauses.Add(1)
	n.pauseTotalNS.Add(int64(pause))
	for {
		max := n.pauseMaxNS.Load()
		if int64(pause) <= max || n.pauseMaxNS.CompareAndSwap(max, int64(pause)) {
			break
		}
	}
	n.cfg.Logf("cluster: node %s migrated %d channels out in %v", me, moved, pause)
	n.flight.Record("migrate-out", "migrated %d channels out in %v (table v%d)", moved, pause, cur.Version)
}

func (n *Node) postMigrate(peer NodeInfo, version uint64, seg []byte) (err error) {
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * 50 * time.Millisecond)
		}
		if err = call(n.client, peer.API, fmt.Sprintf("/v1/migrate?from=%s&v=%d", n.cfg.ID, version), seg, nil); err == nil {
			return nil
		}
	}
	return err
}

// handler serves the node's control plane.
func (n *Node) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/table", func(w http.ResponseWriter, r *http.Request) {
		var req tableResponse
		err := json.NewDecoder(r.Body).Decode(&req)
		if err == nil {
			err = n.applyTable(req.Table)
		}
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/v1/steps", func(w http.ResponseWriter, r *http.Request) {
		var req stepsRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		for _, s := range req.Steps {
			if s.Hops < 0 {
				n.stepsDropped.Add(1)
				continue
			}
			_ = n.route(s, false)
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/v1/migrate", func(w http.ResponseWriter, r *http.Request) {
		n.handleMigrate(w, r)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		// Fleet probes key on the node identity and applied table
		// version: a node answering under the wrong ID or serving a
		// stale table is routing traffic wrong even while its engine is
		// healthy, and the JSON body is how probes catch that.
		st := n.eng.Stats()
		w.Header().Set("Content-Type", "application/json")
		if st.DeadShards > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		json.NewEncoder(w).Encode(nodeHealth{
			OK:           st.DeadShards == 0,
			Node:         n.cfg.ID,
			TableVersion: n.TableVersion(),
			Health:       st.Health.String(),
		})
	})
	return mux
}

// nodeHealth is the /healthz body on the cluster API (and, with the
// coordinator's fields, on the coordinator control plane).
type nodeHealth struct {
	OK           bool   `json:"ok"`
	Node         string `json:"node"`
	TableVersion uint64 `json:"tableVersion"`
	Health       string `json:"health,omitempty"`
}

// handleMigrate absorbs one peer's migration segment (filtered to the
// customers this node owns under its current table) and counts the peer
// off the inbound window. A segment cut for a newer table than this
// node's (the coordinator's push has not landed yet) first pulls that
// table: filtered by the old one, the channels moving here would be lost.
func (n *Node) handleMigrate(w http.ResponseWriter, r *http.Request) {
	from := r.URL.Query().Get("from")
	if v, err := strconv.ParseUint(r.URL.Query().Get("v"), 10, 64); err == nil && v > n.TableVersion() {
		n.pullTable()
	}
	n.mu.Lock()
	t := n.table
	killed := n.killed
	n.mu.Unlock()
	if killed || t == nil {
		http.Error(w, "no table", http.StatusServiceUnavailable)
		return
	}
	me := n.cfg.ID
	added, err := n.eng.RestoreCustomers(r.Body, func(c netip.Addr) bool {
		return t.OwnerID(c) == me
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if added > 0 {
		n.migrationsIn.Add(uint64(added))
		n.cfg.Logf("cluster: node %s restored %d channels from %s", me, added, from)
		n.flight.Record("migrate-in", "restored %d channels from %s", added, from)
	}
	var complete *inboundWindow
	n.mu.Lock()
	if win := n.inbound; win != nil && win.pending[from] {
		delete(win.pending, from)
		if len(win.pending) == 0 {
			complete = win
		}
	}
	n.mu.Unlock()
	if complete != nil {
		n.closeInbound(complete, "complete")
	}
	w.WriteHeader(http.StatusNoContent)
}

// join registers with the coordinator and applies the returned table.
func (n *Node) join() error {
	var tr tableResponse
	if err := call(n.client, n.cfg.Coordinator, "/v1/join", joinRequest{Node: n.info}, &tr); err != nil {
		return err
	}
	return n.applyTable(tr.Table)
}

// heartbeatLoop keeps the coordinator's liveness view fresh, rejoins if
// the coordinator forgot us (its restart or our timeout), and pulls the
// table whenever the coordinator's version is ahead.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		}
		var hr heartbeatResponse
		err := call(n.client, n.cfg.Coordinator, "/v1/heartbeat", heartbeatRequest{ID: n.cfg.ID, Version: n.TableVersion()}, &hr)
		if errors.Is(err, statusError(http.StatusNotFound)) {
			if err := n.join(); err != nil {
				n.cfg.Logf("cluster: node %s rejoin: %v", n.cfg.ID, err)
			}
			continue
		}
		if err != nil {
			n.cfg.Logf("cluster: node %s heartbeat: %v", n.cfg.ID, err)
			continue
		}
		if hr.Version > n.TableVersion() {
			n.pullTable()
		}
	}
}

func (n *Node) pullTable() {
	var tr tableResponse
	if call(n.client, n.cfg.Coordinator, "/v1/table", nil, &tr) == nil {
		_ = n.applyTable(tr.Table)
	}
}

// alertPump hands every alert to OnAlert and fans them up to the
// coordinator, if there is one, in batches, retrying a failed batch so
// alerts survive transient coordinator unavailability.
func (n *Node) alertPump() {
	defer n.wg.Done()
	var pending []WireAlert
	for ev := range n.eng.Alerts() {
		pending = n.takeAlert(pending, ev)
	drain:
		for {
			select {
			case ev, ok := <-n.eng.Alerts():
				if !ok {
					break drain
				}
				pending = n.takeAlert(pending, ev)
			default:
				break drain
			}
		}
		if len(pending) == 0 {
			continue
		}
		if n.postAlerts(pending) == nil {
			pending = pending[:0]
		} else if len(pending) > 4096 {
			n.cfg.Logf("cluster: node %s dropping %d undeliverable alerts", n.cfg.ID, len(pending))
			pending = pending[:0]
		}
	}
	if len(pending) > 0 {
		_ = n.postAlerts(pending)
	}
}

func (n *Node) takeAlert(pending []WireAlert, ev engine.AlertEvent) []WireAlert {
	if n.cfg.OnAlert != nil {
		n.cfg.OnAlert(ev)
	}
	// The decision trace stays node-local (it is large): operators pull
	// it from this node's /debug/alerts; the coordinator gets the
	// compact WireAlert summary.
	if ev.Trace != nil {
		n.tsrv.Alerts().Add(ev.Trace)
	}
	if n.cfg.Coordinator == "" {
		return pending
	}
	return append(pending, WireAlert{
		Customer: ev.Customer.String(),
		Type:     int(ev.Alert.Sig.Type),
		At:       ev.At,
		Severity: int(ev.Alert.Severity),
		Node:     n.cfg.ID,
		Shard:    ev.Shard,
	})
}

func (n *Node) postAlerts(alerts []WireAlert) error {
	return call(n.client, n.cfg.Coordinator, "/v1/alerts", alertsRequest{Alerts: alerts}, nil)
}

// Close gracefully stops the node: tell the coordinator we are leaving,
// then tear the stack down, sealing the ingest tail into the engine and
// writing the barrier checkpoint. The coordinator's table bump triggers
// peers' normal convergence; state for our customers restarts cold on
// their new owners (a graceful drain-and-migrate belongs to the rebalance
// path, where both sides are alive).
func (n *Node) Close() error {
	// Stop applying tables first: the coordinator reacts to our leave by
	// pushing a shrunk table, and applying it mid-teardown would kick off
	// an outbound migration against a closing engine.
	n.mu.Lock()
	n.leaving = true
	n.mu.Unlock()
	if n.cfg.Coordinator != "" {
		n.flight.Record("lifecycle", "graceful close: leaving coordinator")
		_ = call(n.client, n.cfg.Coordinator, "/v1/leave?id="+n.cfg.ID, []byte(nil), nil)
	}
	return n.teardown()
}

// Kill ungracefully stops the node — no leave, no flush of routed steps
// — simulating a crash: the coordinator discovers the death by heartbeat
// timeout and peers take over cold.
func (n *Node) Kill() error {
	n.mu.Lock()
	n.killed = true // teardown stops the inbound window
	n.mu.Unlock()
	return n.teardown()
}

func (n *Node) teardown() error {
	n.stopOnce.Do(func() { close(n.stop) })
	n.mu.Lock()
	n.leaving = true
	wasKilled := n.killed
	n.mu.Unlock()
	// Seal the ingest tail before marking the node dead: on a graceful
	// Close the aggregator's final partial steps still route into the
	// live engine. Kill sets killed before teardown, so route drops them —
	// crash semantics.
	n.ingestCtx()
	err := n.pipe.Close()
	n.mu.Lock()
	n.killed = true
	if n.inbound != nil {
		n.inbound.timer.Stop()
		n.inbound = nil
	}
	for id, f := range n.fwd {
		close(f.done)
		delete(n.fwd, id)
	}
	n.mu.Unlock()
	if !wasKilled {
		// Engine.Close does not run queued work; drain so the sealed tail
		// steps (and their alerts) are processed before the channel closes.
		_ = n.eng.Drain()
		n.saveCheckpoint(true)
	}
	if e := n.eng.Close(); err == nil {
		err = e
	}
	if n.api != nil {
		n.api.Close()
	}
	n.tsrv.Close()
	n.wg.Wait()
	return err
}
