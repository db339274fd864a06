package engine

import (
	"errors"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/xatu-go/xatu/internal/cdet"
	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/telemetry"
	"github.com/xatu-go/xatu/internal/trace"
)

// ErrClosed is returned by Engine methods after Close.
var ErrClosed = errors.New("xatu: engine is closed")

// ErrShardDead is returned (wrapped) when an operation needs a shard
// whose goroutine has exited — only possible with supervision disabled,
// since the supervisor otherwise restarts the shard in place.
var ErrShardDead = errors.New("xatu: shard goroutine has exited")

// ErrBarrierTimeout is returned (wrapped) when a fleet barrier (Drain,
// Checkpoint, Restore) exceeds Config.DrainTimeout.
var ErrBarrierTimeout = errors.New("xatu: barrier timed out")

// Policy selects what Submit does when a shard's mailbox is full.
type Policy uint8

const (
	// Block makes Submit wait for mailbox space (and for room under the
	// shard's record bound): lossless, applies backpressure to the
	// producer. The right choice for replay.
	Block Policy = iota
	// ShedOldest drops the oldest queued telemetry message to make room
	// (messages, or records until the step fits), counting each in
	// ShardStats.Shed: the producer never blocks, mirroring
	// the exporter's bounded-queue policy. The right choice for live
	// ingest, where blocking the collector loop loses newer data anyway.
	ShedOldest
)

// Config parameterizes an Engine.
type Config struct {
	// Monitor configures every shard's Monitor. The Extractor and its
	// registries are shared across shards (they are safe for concurrent
	// use); per-customer detector state is not shared — each customer's
	// streams live entirely on the shard that owns the customer.
	Monitor MonitorConfig
	// Shards is the number of single-threaded detection shards.
	// Zero = runtime.GOMAXPROCS(0).
	Shards int
	// Queue is each shard's mailbox capacity. Zero = 256. It also bounds
	// the flow records a shard holds queued, at recordsPerSlot (256) per
	// slot: 65 536 records at the default, ≈7.5 MB of 120-byte records per
	// shard. That is the engine's memory bound under a flood, when every
	// message carries a step of thousands of records. A step that would
	// pass it is handled as a full mailbox is (see Policy), except that a
	// shard holding no records always admits one, however large.
	Queue int
	// Policy is the backpressure policy for Submit and ObserveMissing.
	Policy Policy
	// AlertBuffer is the capacity of the fan-in alert channel. The caller
	// must drain Alerts(); once the buffer fills, shards block on alert
	// delivery. Zero = 1024.
	AlertBuffer int
	// Telemetry, when non-nil, registers the engine's metric families
	// (per-shard counters and queue gauges, step/submit/checkpoint latency
	// histograms, per-type alert counters) on the registry and enables
	// latency recording in the shard loops. Nil disables instrumentation;
	// the existing atomic counters behind Stats are kept either way.
	Telemetry *telemetry.Registry

	// Step is the deployment's telemetry aggregation interval; it
	// parameterizes the CDetOnly fallback detector's rate baselines.
	// Zero = one minute.
	Step time.Duration
	// Fallback tunes the pass-through CDet detector that keeps alerts
	// flowing in CDetOnly mode. Nil = FastNetMon parameters at Step.
	Fallback *cdet.Params
	// WAL is the per-shard replay-log capacity: telemetry messages
	// processed since the shard's last background snapshot, replayed after
	// a panic recovery (a step as the feature vector its monitor consumed).
	// Zero = 512. Negative disables replay (recovery restarts from the last
	// snapshot alone).
	WAL int
	// CheckpointInterval is how often each shard snapshots its monitor in
	// the background, with no fleet barrier and no pause of the other
	// shards. It bounds restart loss: a recovering shard loses at most the
	// poison message plus whatever its WAL evicted since the last
	// snapshot. Zero = 10s. Negative disables background snapshots.
	CheckpointInterval time.Duration
	// Watchdog is the supervisor tick driving stall detection and the
	// Healthy → Degraded → CDetOnly state machine. Zero = 250ms. Negative
	// disables the watchdog (ForceHealth still works).
	Watchdog time.Duration
	// StallAfter marks a shard stalled when its mailbox has work but no
	// message completes for this long. Zero = 10s.
	StallAfter time.Duration
	// DrainTimeout bounds every fleet-barrier wait (Drain, Checkpoint,
	// Restore) so a dead or wedged shard surfaces as an error instead of a
	// deadlock. Zero = 60s.
	DrainTimeout time.Duration
	// RecoverTicks is the de-escalation hysteresis: consecutive clean
	// watchdog ticks required before the health state steps down one
	// level. Zero = 8.
	RecoverTicks int
	// DisableSupervision lets a shard goroutine die on panic instead of
	// recovering in place. The death is surfaced in Stats/Health and as
	// barrier errors. For tests of the dead-shard paths.
	DisableSupervision bool

	// Trace, when non-nil, records a StageStep span (in-shard inference
	// latency) for every sampled customer's step. Nil (tracing off)
	// costs one pointer check per processed step.
	Trace *trace.Recorder
	// Flight, when non-nil, is the black-box recorder fed with health
	// transitions, shard restarts, quarantines, shed bursts, and
	// checkpoint/restore events; health transitions and panics trigger
	// automatic ring dumps. Nil disables it at one pointer check per
	// event site (all off the hot path).
	Flight *trace.Flight
}

// AlertEvent is one alert annotated with its origin.
type AlertEvent struct {
	// Customer is the protected address the alert fired for.
	Customer netip.Addr
	// At is the step time passed to Submit.
	At time.Time
	// Shard is the index of the shard that raised the alert.
	Shard int
	// Alert is the detection event itself.
	Alert ddos.Alert
	// Trace is the structured decision evidence behind the alert (survival
	// trajectory, per-signal contributions, threshold and calibration);
	// always populated by the engine. It marshals to JSON for operator
	// tooling and the /debug/alerts ring.
	Trace *Trace
}

// ShardStats is a snapshot of one shard's counters.
type ShardStats struct {
	Shard            int
	Submitted        uint64        // telemetry messages enqueued (steps + missing)
	Shed             uint64        // telemetry messages dropped by ShedOldest
	Requeued         uint64        // control messages requeued instead of shed
	Steps            uint64        // ObserveStep calls processed
	Missing          uint64        // ObserveMissing calls processed
	Alerts           uint64        // alerts fanned in from this shard
	Channels         int           // live (customer, attack-type) detector channels
	QueueLen         int           // current mailbox depth
	QueueHighWater   int           // max observed mailbox depth
	RecordsQueued    int           // flow records in queued steps, not yet handled
	RecordsHighWater int           // max observed RecordsQueued
	StepTotal        time.Duration // cumulative step latency, each batch counted once
	StepMax          time.Duration // worst single step latency: a message's share of its batch

	// Self-healing accounting.
	Restarts       uint64        // supervised restarts after a panic
	Quarantined    uint64        // poison messages recovered from (never retried)
	WALReplayed    uint64        // WAL messages replayed across all restarts
	WALDropped     uint64        // WAL entries evicted beyond the replay window
	Lost           uint64        // telemetry unrecoverable after restarts (poison + evicted)
	Bypassed       uint64        // telemetry handled by the CDet fallback in CDetOnly
	FallbackAlerts uint64        // alerts emitted by the CDet fallback
	Snapshots      uint64        // background snapshots published
	RecoveryTotal  time.Duration // cumulative supervised-recovery time
	Stalled        bool          // watchdog: queued work but no recent progress
	Dead           bool          // shard goroutine has exited (supervision disabled)
}

// AvgStep returns the mean ObserveStep latency, or 0 before any step.
func (s ShardStats) AvgStep() time.Duration {
	if s.Steps == 0 {
		return 0
	}
	return s.StepTotal / time.Duration(s.Steps)
}

// Stats aggregates per-shard snapshots: counters and durations sum over
// shards, water marks take the max.
type Stats struct {
	Shards           []ShardStats
	Submitted        uint64
	Shed             uint64
	Requeued         uint64
	Steps            uint64
	Missing          uint64
	Alerts           uint64
	Channels         int           // sum over shards
	QueueLen         int           // sum over shards
	QueueHighWater   int           // max over shards
	RecordsQueued    int           // sum over shards
	RecordsHighWater int           // max over shards
	StepTotal        time.Duration // sum over shards
	StepMax          time.Duration // max over shards

	// Self-healing roll-up.
	Restarts       uint64
	Quarantined    uint64
	WALReplayed    uint64
	WALDropped     uint64
	Lost           uint64
	Bypassed       uint64
	FallbackAlerts uint64
	Snapshots      uint64
	RecoveryTotal  time.Duration
	StalledShards  int
	DeadShards     int
	Health         HealthState
	HealthCause    string
}

// AvgStep returns the fleet-wide mean ObserveStep latency, or 0 before
// any step.
func (s Stats) AvgStep() time.Duration {
	if s.Steps == 0 {
		return 0
	}
	return s.StepTotal / time.Duration(s.Steps)
}

type opcode uint8

const (
	opStep opcode = iota
	opMissing
	opEnd
	// opExec runs msg.exec on the shard goroutine after everything queued
	// before it: every barrier, checkpoint, restore, migration and
	// injected fault. On the shard's own goroutine it needs no lock, and no
	// step can land on state that it is about to replace.
	opExec
)

// opName labels an opcode for flight-recorder events.
func opName(op opcode) string {
	switch op {
	case opStep:
		return "step"
	case opMissing:
		return "missing"
	case opEnd:
		return "end-mitigation"
	default:
		return "control"
	}
}

type message struct {
	op       opcode
	customer netip.Addr
	at       time.Time
	flows    []netflow.Record
	atype    ddos.AttackType
	enq      int64              // UnixNano enqueue stamp (telemetry only; 0 = unstamped)
	done     chan error         // opExec ack (buffered, never blocks; nil = none)
	exec     func(*shard) error // opExec
}

type shard struct {
	id   int
	mon  *Monitor
	mail chan message

	submitted atomic.Uint64
	shed      atomic.Uint64
	requeued  atomic.Uint64
	steps     atomic.Uint64
	missing   atomic.Uint64
	alerts    atomic.Uint64
	channels  atomic.Int64
	stepNanos atomic.Uint64
	stepMax   atomic.Int64
	highWater atomic.Int64

	// queued counts the records of this shard's steps from Submit until
	// the shard hands them back after the step's run (or a shed); see
	// Config.Queue. A Submit over the bound waits on room, woken by the
	// release that follows it while waiters is non-zero.
	queued     atomic.Int64
	recordsMax atomic.Int64
	waiters    atomic.Int32
	room       chan struct{}

	// Supervision counters (read by Stats/Health/watchdog).
	handled       atomic.Uint64 // messages fully processed (watchdog progress signal)
	restarts      atomic.Uint64
	quarantined   atomic.Uint64
	walReplayed   atomic.Uint64
	walDropped    atomic.Uint64
	lost          atomic.Uint64
	bypassed      atomic.Uint64
	fbAlerts      atomic.Uint64
	snapshots     atomic.Uint64
	recoveryNanos atomic.Uint64
	stalled       atomic.Bool
	dead          atomic.Bool
	deadCh        chan struct{} // closed when the shard goroutine exits abnormally

	// snap is the latest background snapshot (recovery basis), published
	// by the shard goroutine, read by CheckpointIncremental and recovery.
	snap atomic.Pointer[shardSnapshot]

	// WAL state below is touched only by the owning shard goroutine
	// (wal.go).
	wal        []walEntry
	walHead    int
	walN       int
	walEvicted uint64   // entries evicted since the last snapshot
	vecs       vecArena // the logged steps' vectors
	lastSnap   time.Time

	// recs holds the record buffers Submit copies steps into, returned
	// once the shard has handled (or shed) the step.
	recs recPool

	fb *cdet.Detector // lazily-built CDetOnly fallback

	// The reused run of step messages runShard collects, its monitor
	// batch, and how many of the run's messages handleSteps has finished
	// (what a panic in the run leaves done). Shard goroutine only.
	run     []message
	batch   []stepIn
	runDone int

	// What the monitor's steps consumed — the model lanes' work
	// (core.LaneStats) and the extractor's (Monitor.ExtractStats) — summed
	// over every monitor this shard has run. seenMon and the seen* values,
	// shard goroutine only, are the monitor last read and its counters at
	// that read.
	laneRows, laneProjections, laneNonzero atomic.Uint64
	stepRecords, extractNanos              atomic.Uint64
	seenMon                                *Monitor
	seenLanes                              core.LaneStats
	seenRecords                            uint64
	seenExtract                            time.Duration

	panicMu   sync.Mutex
	lastPanic string
}

// publishMonitorStats adds what the current monitor did since the last
// call to the shard's counters. A replaced monitor (restore, rewrite,
// recovery) starts again from zero; the shard's totals carry on.
func (s *shard) publishMonitorStats() {
	if s.seenMon != s.mon {
		s.seenMon, s.seenLanes, s.seenRecords, s.seenExtract = s.mon, core.LaneStats{}, 0, 0
	}
	lanes := s.mon.LaneStats()
	s.laneRows.Add(lanes.Rows - s.seenLanes.Rows)
	s.laneProjections.Add(lanes.Projections - s.seenLanes.Projections)
	s.laneNonzero.Add(lanes.NonzeroColumns - s.seenLanes.NonzeroColumns)
	s.seenLanes = lanes
	records, extract := s.mon.ExtractStats()
	s.stepRecords.Add(records - s.seenRecords)
	s.extractNanos.Add(uint64(extract - s.seenExtract))
	s.seenRecords, s.seenExtract = records, extract
}

// Engine is a sharded concurrent detection engine: N single-threaded
// Monitors, each behind a bounded mailbox, with customers partitioned by
// a stable hash of their address. Submit, ObserveMissing, EndMitigation
// and Alerts are safe for concurrent use from any number of goroutines.
//
// Lifecycle methods — Drain, Checkpoint, Restore, Close — are barriers
// over the whole fleet and must not race with each other or with
// producers still submitting; quiesce producers first (the alert channel
// must keep being drained, or a checkpoint can deadlock behind an
// undelivered alert).
type Engine struct {
	cfg    Config
	shards []*shard
	// maxRecords is each shard's bound on queued records (Config.Queue).
	maxRecords int64
	alerts     chan AlertEvent
	mx         *engineMetrics // nil when Config.Telemetry is nil
	done       chan struct{}
	wg         sync.WaitGroup

	// Health state machine (see supervisor.go).
	health atomic.Int32 // current HealthState
	forced atomic.Int32 // ForceHealth override; -1 = automatic

	transMu     sync.Mutex
	healthCause string
	trans       []HealthTransition

	closeOnce sync.Once
}

// New validates the configuration, builds one Monitor per shard and
// starts the shard goroutines plus the supervising watchdog.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 256
	}
	if cfg.AlertBuffer <= 0 {
		cfg.AlertBuffer = 1024
	}
	if cfg.Step <= 0 {
		cfg.Step = time.Minute
	}
	if cfg.Fallback == nil {
		p := cdet.FastNetMonParams(cfg.Step)
		cfg.Fallback = &p
	}
	if cfg.WAL == 0 {
		cfg.WAL = 512
	}
	if cfg.CheckpointInterval == 0 {
		cfg.CheckpointInterval = 10 * time.Second
	}
	if cfg.Watchdog == 0 {
		cfg.Watchdog = 250 * time.Millisecond
	}
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = 10 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 60 * time.Second
	}
	if cfg.RecoverTicks <= 0 {
		cfg.RecoverTicks = 8
	}
	e := &Engine{
		cfg:        cfg,
		shards:     make([]*shard, cfg.Shards),
		maxRecords: recordsPerSlot * int64(cfg.Queue),
		alerts:     make(chan AlertEvent, cfg.AlertBuffer),
		done:       make(chan struct{}),
	}
	e.forced.Store(-1)
	now := time.Now()
	for i := range e.shards {
		mon, err := NewMonitor(cfg.Monitor)
		if err != nil {
			return nil, err
		}
		s := &shard{id: i, mon: mon, mail: make(chan message, cfg.Queue),
			room: make(chan struct{}, 1), deadCh: make(chan struct{}), lastSnap: now}
		s.recs.maxRecords = e.maxRecords
		if cfg.WAL > 0 {
			s.wal = make([]walEntry, cfg.WAL)
		}
		e.shards[i] = s
	}
	if cfg.Telemetry != nil {
		e.mx = e.registerMetrics(cfg.Telemetry)
	}
	e.wg.Add(len(e.shards))
	for _, s := range e.shards {
		go e.runShard(s)
	}
	if cfg.Watchdog > 0 {
		e.wg.Add(1)
		go e.watchdog(cfg.Watchdog)
	}
	return e, nil
}

// Shards returns the number of shards.
func (e *Engine) Shards() int { return len(e.shards) }

// ShardOf returns the shard index that owns the customer. The mapping is
// a stable FNV-1a hash over the address's 16-byte form: the same customer
// lands on the same shard on every run, every process, and every restore
// with the same shard count.
func (e *Engine) ShardOf(customer netip.Addr) int {
	return shardOf(customer, len(e.shards))
}

// ShardOf is the package-level form of Engine.ShardOf: the stable FNV-1a
// customer → shard mapping for n shards. Exported so upstream stages (the
// ingest pipeline's aggregation workers) can partition work by the same
// function and preserve per-customer ordering end to end.
func ShardOf(customer netip.Addr, n int) int {
	return shardOf(customer, n)
}

func shardOf(customer netip.Addr, n int) int {
	return int(addrHash(customer) % uint64(n))
}

// addrHash is the stable FNV-1a hash over the address's 16-byte form that
// every partitioning level derives from. Using As16 makes an IPv4 address
// and its v4-mapped IPv6 form hash identically, so a customer keeps its
// placement no matter which representation a decoder produced.
func addrHash(customer netip.Addr) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	b := customer.As16()
	h := uint64(offset64)
	for _, c := range b {
		h = (h ^ uint64(c)) * prime64
	}
	return h
}

// NodeOf is the two-level fleet generalization of ShardOf: it partitions a
// customer first across nodes, then across shards within the owning node.
// The node level remixes the shared FNV-1a hash through a 64-bit finalizer
// so the two levels stay independent — without it, nodes == shards would
// pin every customer of node i onto shard i. The shard level IS ShardOf,
// so a fleet of one node places every customer exactly where a
// single-process Engine does: NodeOf(c, 1, n) == (0, ShardOf(c, n)).
func NodeOf(customer netip.Addr, nodes, shards int) (node, shard int) {
	h := addrHash(customer)
	m := h
	m ^= m >> 33
	m *= 0xff51afd7ed558ccd
	m ^= m >> 33
	m *= 0xc4ceb9fe1a85ec53
	m ^= m >> 33
	return int(m % uint64(nodes)), int(h % uint64(shards))
}

// Alerts returns the fan-in alert channel. Alerts from one customer are
// delivered in step order (its shard processes sequentially); ordering
// across shards is best-effort. The channel is closed by Close.
func (e *Engine) Alerts() <-chan AlertEvent { return e.alerts }

// Submit routes one step of flows for the customer to its owning shard.
// It never blocks under ShedOldest (dropping the oldest queued telemetry
// instead, counted per shard); under Block it waits for mailbox space and
// for room under the shard's record bound (Config.Queue).
// flows is valid only for the call: Submit copies the records into a
// buffer of the shard's, which the shard reuses once the step is handled,
// so the caller may recycle its slice as soon as Submit returns.
func (e *Engine) Submit(customer netip.Addr, at time.Time, flows []netflow.Record) error {
	s := e.shards[e.ShardOf(customer)]
	var own []netflow.Record
	n := int64(len(flows))
	if n > 0 {
		own = append(s.recs.get(), flows...)
	}
	err := e.reserve(s, n)
	if err == nil {
		if err = e.submitTelemetry(s, message{op: opStep, customer: customer, at: at, flows: own}); err != nil {
			s.release(n)
		}
	}
	if err != nil {
		s.recs.put(own)
	}
	return err
}

// recordsPerSlot is the queued records a shard may hold per mailbox slot:
// 65 536 at the default Queue. On narrow_flood's 2 000-record steps that
// held heap and lag where they were while aggregation was the bottleneck;
// half of it cut lag further but gave back half the throughput gained.
const recordsPerSlot = 256

// reserve counts n records into s's queue. Past the bound, and while the
// shard holds records of other steps, Block waits for the shard to hand
// some back and ShedOldest sheds the oldest queued telemetry until the
// step fits or the mailbox holds nothing more to shed (the run the shard
// is stepping cannot be shed). Uncontended it is one atomic add.
func (e *Engine) reserve(s *shard, n int64) error {
	for waited := false; n > 0; waited = true {
		if q := s.queued.Add(n); q <= e.maxRecords || q == n {
			raiseTo(&s.recordsMax, q)
			if waited {
				s.wake() // what was released may make room for another waiter
			}
			return nil
		}
		if e.cfg.Policy == ShedOldest {
		shed:
			for tries := cap(s.mail); s.queued.Load() > e.maxRecords && tries > 0; tries-- {
				select {
				case old := <-s.mail:
					e.shed(s, old)
				default:
					break shed
				}
			}
			raiseTo(&s.recordsMax, s.queued.Load())
			return nil
		}
		s.queued.Add(-n)
		// Register before looking, so that a release between the look and
		// the wait still wakes this Submit.
		s.waiters.Add(1)
		var err error
		if q := s.queued.Load(); q != 0 && q+n > e.maxRecords {
			select {
			case <-s.room:
			case <-s.deadCh:
				err = fmt.Errorf("%w (shard %d)", ErrShardDead, s.id)
			case <-e.done:
				err = ErrClosed
			}
		}
		s.waiters.Add(-1)
		if err != nil {
			return err
		}
	}
	return nil
}

// release hands n records back and wakes a waiting Submit, if any.
func (s *shard) release(n int64) {
	s.queued.Add(-n)
	s.wake()
}

func (s *shard) wake() {
	if s.waiters.Load() > 0 {
		select {
		case s.room <- struct{}{}:
		default:
		}
	}
}

// shed drops a telemetry message taken from s's mailbox under ShedOldest,
// or requeues a message that must not be lost.
func (e *Engine) shed(s *shard, old message) {
	if old.op == opStep || old.op == opMissing {
		s.shed.Add(1)
		s.recs.put(old.flows)
		s.release(int64(len(old.flows)))
		return
	}
	// EndMitigation or a control op must never be lost: requeue it. Under
	// overload it is reordered behind the queue tail, which beats dropping
	// the signal.
	s.requeued.Add(1)
	s.mail <- old
}

// ObserveMissing routes a missing-telemetry step for the customer to its
// owning shard, with the same backpressure policy as Submit.
func (e *Engine) ObserveMissing(customer netip.Addr, at time.Time) error {
	return e.submitTelemetry(e.shards[e.ShardOf(customer)], message{op: opMissing, customer: customer, at: at})
}

func (e *Engine) submitTelemetry(s *shard, msg message) error {
	if e.closed() {
		return ErrClosed
	}
	if e.mx != nil {
		msg.enq = time.Now().UnixNano()
	}
	if s.dead.Load() {
		return fmt.Errorf("%w (shard %d)", ErrShardDead, s.id)
	}
	if e.cfg.Policy == Block {
		select {
		case s.mail <- msg:
		case <-s.deadCh:
			return fmt.Errorf("%w (shard %d)", ErrShardDead, s.id)
		case <-e.done:
			return ErrClosed
		}
		s.noteEnqueued()
		return nil
	}
	for {
		select {
		case s.mail <- msg:
			s.noteEnqueued()
			return nil
		case <-s.deadCh:
			return fmt.Errorf("%w (shard %d)", ErrShardDead, s.id)
		case <-e.done:
			return ErrClosed
		default:
		}
		// Mailbox full: make room by shedding the oldest queued telemetry.
		select {
		case old := <-s.mail:
			e.shed(s, old)
		case <-e.done:
			return ErrClosed
		default:
			// The shard drained the mailbox between the two selects; retry.
		}
	}
}

// maxFreeRecBufs bounds the record buffers waiting on a shard's free-list.
// A steady stream recycles a run's worth at a time between the shard and
// Submit; what a burst leaves beyond two runs goes to the collector.
const maxFreeRecBufs = 2 * maxRun

// recPool is a shard's free-list of record buffers, shared by the
// producers calling Submit and the shard goroutine returning buffers.
// Beyond its first buffer it keeps at most maxRecords records of capacity,
// the shard's record bound: the buffers queued steps hold never add up to
// more, so a flood is served from the list without the list doubling the
// memory the bound allows.
type recPool struct {
	mu         sync.Mutex
	free       [][]netflow.Record
	freeCap    int64
	maxRecords int64
}

// get returns an empty buffer, nil when none is free. A buffer too small
// for a step grows as append grows it, so buffers settle at the largest
// steps' size instead of being replaced at each smaller one.
func (p *recPool) get() []netflow.Record {
	p.mu.Lock()
	defer p.mu.Unlock()
	k := len(p.free)
	if k == 0 {
		return nil
	}
	b := p.free[k-1]
	p.free[k-1] = nil
	p.free = p.free[:k-1]
	p.freeCap -= int64(cap(b))
	return b
}

// put returns a buffer get handed out, or drops it when the list is full.
func (p *recPool) put(b []netflow.Record) {
	p.mu.Lock()
	p.keep(b)
	p.mu.Unlock()
}

// putRun returns the buffers of a handled run under one lock: the shard
// takes the lock once per run, not once per message. It returns the run's
// record count.
func (p *recPool) putRun(run []message) (records int64) {
	p.mu.Lock()
	for i := range run {
		records += int64(len(run[i].flows))
		p.keep(run[i].flows)
	}
	p.mu.Unlock()
	return records
}

func (p *recPool) keep(b []netflow.Record) {
	c := int64(cap(b))
	if c > 0 && (len(p.free) == 0 || len(p.free) < maxFreeRecBufs && p.freeCap+c <= p.maxRecords) {
		p.free = append(p.free, b[:0])
		p.freeCap += c
	}
}

func (s *shard) noteEnqueued() {
	s.submitted.Add(1)
	raiseTo(&s.highWater, int64(len(s.mail)))
}

// raiseTo raises the high water mark hw to v.
func raiseTo(hw *atomic.Int64, v int64) {
	for {
		old := hw.Load()
		if v <= old || hw.CompareAndSwap(old, v) {
			return
		}
	}
}

// EndMitigation routes a CScrub mitigation-end signal to the customer's
// owning shard. It is ordered with the customer's queued telemetry and is
// never shed.
func (e *Engine) EndMitigation(customer netip.Addr, at ddos.AttackType) error {
	return e.send(e.shards[e.ShardOf(customer)], message{op: opEnd, customer: customer, atype: at})
}

// send enqueues a message that is never shed, waiting for mailbox space.
func (e *Engine) send(s *shard, msg message) error {
	if e.closed() {
		return ErrClosed
	}
	if s.dead.Load() {
		return fmt.Errorf("%w (shard %d)", ErrShardDead, s.id)
	}
	select {
	case s.mail <- msg:
		return nil
	case <-s.deadCh:
		return fmt.Errorf("%w (shard %d)", ErrShardDead, s.id)
	case <-e.done:
		return ErrClosed
	}
}

// Drain blocks until every message submitted before the call has been
// fully processed. It must not race with producers still submitting.
// A dead shard or a wait past Config.DrainTimeout returns an error
// (wrapping ErrShardDead / ErrBarrierTimeout) instead of hanging.
func (e *Engine) Drain() error {
	return e.onShards("drain", func(*shard) error { return nil })
}

func (e *Engine) closed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// onShards runs fn on every shard's goroutine, after everything queued on
// that shard before the call, waits for every shard, and returns the first
// error wrapped with what and its shard index. The whole barrier shares one
// Config.DrainTimeout budget, and a dead shard aborts it immediately with
// the shard's last panic — a shard that exited can never wedge a
// Drain/Checkpoint/Restore.
func (e *Engine) onShards(what string, fn func(*shard) error) error {
	if e.closed() {
		return ErrClosed
	}
	timer := time.NewTimer(e.cfg.DrainTimeout)
	defer timer.Stop()
	acks := make([]chan error, len(e.shards))
	for i, s := range e.shards {
		acks[i] = make(chan error, 1)
		select {
		case s.mail <- message{op: opExec, done: acks[i], exec: fn}:
		case <-s.deadCh:
			return fmt.Errorf("%w (shard %d: %s)", ErrShardDead, i, s.panicDetail())
		case <-timer.C:
			return fmt.Errorf("%w after %v sending to shard %d (queue %d/%d)",
				ErrBarrierTimeout, e.cfg.DrainTimeout, i, len(s.mail), cap(s.mail))
		case <-e.done:
			return ErrClosed
		}
	}
	var first error
	for i, d := range acks {
		var err error
		select {
		case err = <-d:
		case <-e.shards[i].deadCh:
			// The shard died after the send; prefer a late ack if one
			// raced in ahead of the death notice.
			select {
			case err = <-d:
			default:
				return fmt.Errorf("%w (shard %d: %s)", ErrShardDead, i, e.shards[i].panicDetail())
			}
		case <-timer.C:
			return fmt.Errorf("%w after %v waiting for shard %d",
				ErrBarrierTimeout, e.cfg.DrainTimeout, i)
		case <-e.done:
			return ErrClosed
		}
		if err != nil && first == nil {
			first = fmt.Errorf("xatu: %s shard %d: %w", what, i, err)
		}
	}
	return first
}

// Stats snapshots per-shard and aggregate counters.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(e.shards))}
	st.Health = e.healthNow()
	st.HealthCause = e.HealthCause()
	for i, s := range e.shards {
		ss := ShardStats{
			Shard:            i,
			Submitted:        s.submitted.Load(),
			Shed:             s.shed.Load(),
			Requeued:         s.requeued.Load(),
			Steps:            s.steps.Load(),
			Missing:          s.missing.Load(),
			Alerts:           s.alerts.Load(),
			Channels:         int(s.channels.Load()),
			QueueLen:         len(s.mail),
			QueueHighWater:   int(s.highWater.Load()),
			RecordsQueued:    int(s.queued.Load()),
			RecordsHighWater: int(s.recordsMax.Load()),
			StepTotal:        time.Duration(s.stepNanos.Load()),
			StepMax:          time.Duration(s.stepMax.Load()),
			Restarts:         s.restarts.Load(),
			Quarantined:      s.quarantined.Load(),
			WALReplayed:      s.walReplayed.Load(),
			WALDropped:       s.walDropped.Load(),
			Lost:             s.lost.Load(),
			Bypassed:         s.bypassed.Load(),
			FallbackAlerts:   s.fbAlerts.Load(),
			Snapshots:        s.snapshots.Load(),
			RecoveryTotal:    time.Duration(s.recoveryNanos.Load()),
			Stalled:          s.stalled.Load(),
			Dead:             s.dead.Load(),
		}
		st.Shards[i] = ss
		st.Submitted += ss.Submitted
		st.Shed += ss.Shed
		st.Requeued += ss.Requeued
		st.Steps += ss.Steps
		st.Missing += ss.Missing
		st.Alerts += ss.Alerts
		st.Channels += ss.Channels
		st.QueueLen += ss.QueueLen
		st.RecordsQueued += ss.RecordsQueued
		st.StepTotal += ss.StepTotal
		st.Restarts += ss.Restarts
		st.Quarantined += ss.Quarantined
		st.WALReplayed += ss.WALReplayed
		st.WALDropped += ss.WALDropped
		st.Lost += ss.Lost
		st.Bypassed += ss.Bypassed
		st.FallbackAlerts += ss.FallbackAlerts
		st.Snapshots += ss.Snapshots
		st.RecoveryTotal += ss.RecoveryTotal
		if ss.Stalled {
			st.StalledShards++
		}
		if ss.Dead {
			st.DeadShards++
		}
		st.QueueHighWater = max(st.QueueHighWater, ss.QueueHighWater)
		st.RecordsHighWater = max(st.RecordsHighWater, ss.RecordsHighWater)
		if ss.StepMax > st.StepMax {
			st.StepMax = ss.StepMax
		}
	}
	return st
}

// Close stops all shards and closes the alert channel. Queued messages
// not yet processed are abandoned; Drain first for a graceful stop.
// Close is idempotent.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.wg.Wait()
		close(e.alerts)
	})
	return nil
}

// maxRun bounds the step messages a shard steps as one batch. The lane's
// cost per customer-step falls with the customers in a Push and then
// climbs again as its scratch outgrows the cache: at wide_quiet's shape
// (Hidden 64, six channels per customer) BenchmarkLanePushWide read
// 22.3 µs at 1 customer per Push, 19.3 at 4, 17.8 at 16, 17.5 at 32,
// 17.8 at 64 and 19.4 at 256 on a 2-vCPU Xeon.
const maxRun = 32

func (e *Engine) runShard(s *shard) {
	defer e.wg.Done()
	defer func() {
		// Abnormal exit: the engine still runs but this shard is gone
		// (supervision disabled, or an unrecoverable monitor rebuild).
		// Publish the death so Submit and barriers fail fast instead of
		// wedging on a mailbox nobody reads.
		if !e.closed() {
			s.dead.Store(true)
			close(s.deadCh)
		}
	}()
	var msg message
	held := false // msg was received, and ended the previous run
	for {
		if !held {
			select {
			case <-e.done:
				return
			case msg = <-s.mail:
			}
		}
		st := e.healthNow()
		run := append(s.run[:0], msg)
		held = false
		// A step takes along the steps of the same tick already waiting
		// behind it, one per customer; it never waits for more. Any other
		// message ends the run and is handled right after it.
	collect:
		for msg.op == opStep && st != CDetOnly && len(run) < maxRun {
			select {
			case next := <-s.mail:
				if next.op != opStep || !next.at.Equal(msg.at) || inRun(run, next.customer) {
					msg, held = next, true
					break collect
				}
				run = append(run, next)
			default:
				break collect
			}
		}
		s.run = run
		alive := e.supervise(s, run, st)
		s.release(s.recs.putRun(run))
		clear(run) // hold no flows past their step
		if !alive {
			return
		}
	}
}

// inRun reports whether the run already holds a step for customer.
func inRun(run []message, customer netip.Addr) bool {
	for i := range run {
		if run[i].customer == customer {
			return true
		}
	}
	return false
}

// handle processes one message, or a run of step messages, under health
// state st; it reports false when the engine closed mid-message (alert
// delivery aborted).
func (e *Engine) handle(s *shard, run []message, st HealthState) bool {
	switch msg := run[0]; msg.op {
	case opStep:
		return e.handleSteps(s, run, st)
	case opMissing:
		if st == CDetOnly {
			s.bypassed.Add(1)
		} else {
			s.mon.ObserveMissing(msg.customer, msg.at)
			s.missing.Add(1)
			s.publishMonitorStats()
		}
		e.fallbackMissing(s, msg)
		e.observeSubmitLatency(msg.enq)
	case opEnd:
		// Mitigation lifecycle always reaches the monitor: its state must
		// stay consistent for the return to Healthy.
		s.mon.EndMitigation(msg.customer, msg.atype)
		if e.mx != nil {
			e.mx.mitigationEnds.Inc()
		}
	case opExec:
		err := msg.exec(s)
		if msg.done != nil {
			msg.done <- err
		}
	default:
		panic(fmt.Sprintf("engine: unknown opcode %d", msg.op))
	}
	return true
}

// handleSteps steps a run of step messages — distinct customers, one
// step time; a lone message is a run of one — as one monitor batch, then
// does each message's accounting in order: its step count, latency and
// trace span (its share of the batch), its alerts, the fallback's
// learning step, its submit latency and its WAL entry. s.runDone counts
// the messages finished.
func (e *Engine) handleSteps(s *shard, run []message, st HealthState) bool {
	s.runDone = 0
	if st == CDetOnly {
		// Model inference is shed: the pass-through CDet fallback confirms
		// volumetric anomalies so alerts keep flowing. Runs are of one.
		for _, msg := range run {
			if !e.fallbackStep(s, msg, true) {
				return false
			}
			s.bypassed.Add(1)
			e.observeSubmitLatency(msg.enq)
			s.runDone++
		}
		return true
	}
	batch := s.batch[:0]
	for _, msg := range run {
		batch = append(batch, stepIn{customer: msg.customer, at: msg.at, flows: msg.flows})
	}
	s.batch = batch
	start := time.Now()
	// Under Degraded traces are the first load shed: detection is
	// unchanged, alerts just carry no decision evidence.
	s.mon.observeBatch(batch, st != Degraded)
	el := time.Since(start)
	s.stepNanos.Add(uint64(el))
	share := el / time.Duration(len(run))
	raiseTo(&s.stepMax, int64(share))
	s.publishMonitorStats()
	s.channels.Store(int64(s.mon.Channels()))
	for i, msg := range run {
		s.steps.Add(1)
		if e.mx != nil {
			e.mx.stepLatency.Observe(share)
		}
		if tr := e.cfg.Trace; tr != nil && tr.Sampled(msg.customer) {
			tr.Record(msg.customer, msg.at, trace.StageStep, share, shardDetail(s.id))
		}
		for j, a := range batch[i].alerts {
			s.alerts.Add(1)
			if e.mx != nil {
				if at := a.Sig.Type; at >= 0 && at < ddos.NumAttackTypes {
					e.mx.alertsByType[at].Inc()
				}
			}
			var tr *Trace
			if batch[i].traces != nil {
				tr = batch[i].traces[j]
			}
			select {
			case e.alerts <- AlertEvent{Customer: msg.customer, At: msg.at, Shard: s.id, Alert: a, Trace: tr}:
			case <-e.done:
				return false
			}
		}
		// Keep the fallback's baselines warm so a later CDetOnly entry
		// starts with learned thresholds, not a cold warm-up.
		e.fallbackStep(s, msg, false)
		e.observeSubmitLatency(msg.enq)
		s.walAppend(&run[i], batch[i].x, batch[i].hits)
		s.runDone++
	}
	clear(batch)
	return true
}

// observeSubmitLatency records enqueue-to-processed latency for a stamped
// telemetry message (alerts, if any, have already been emitted).
func (e *Engine) observeSubmitLatency(enq int64) {
	if e.mx == nil || enq == 0 {
		return
	}
	e.mx.submitLatency.Observe(time.Duration(time.Now().UnixNano() - enq))
}

// shardDetail renders the span-detail label for a shard. Small shard
// indices (the common case) come from a precomputed table so sampled
// steps don't pay a fmt call.
func shardDetail(id int) string {
	if id >= 0 && id < len(shardDetails) {
		return shardDetails[id]
	}
	return fmt.Sprintf("shard %d", id)
}

var shardDetails = func() [64]string {
	var t [64]string
	for i := range t {
		t[i] = fmt.Sprintf("shard %d", i)
	}
	return t
}()
