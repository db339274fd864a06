package engine

import (
	"bytes"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/cdet"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/netflow"
)

// scanCheckpoint parses any checkpoint layout into customer → raw channel
// record bytes, the bit-exact comparison unit of the stream state.
func scanCheckpoint(t *testing.T, data []byte) map[netip.Addr][][]byte {
	t.Helper()
	segs, err := checkpointSegments(data)
	if err != nil {
		t.Fatalf("parsing checkpoint: %v", err)
	}
	out := make(map[netip.Addr][][]byte)
	for _, seg := range segs {
		chans, err := scanMonitorBody(seg)
		if err != nil {
			t.Fatalf("scanning segment: %v", err)
		}
		for _, rc := range chans {
			out[rc.customer] = append(out[rc.customer], rc.raw)
		}
	}
	return out
}

// TestSupervisorRecoversInjectedPanic pins the heart of the self-healing
// contract: a poison message restarts the shard from its last snapshot
// plus a full WAL replay, and because the poison carried no telemetry the
// recovered stream state is bit-identical to a monitor that never saw a
// fault at all.
func TestSupervisorRecoversInjectedPanic(t *testing.T) {
	cfg := tinyMonitorConfig(t)
	eng, err := New(Config{
		Monitor:            cfg,
		Shards:             1,
		Policy:             Block,
		Watchdog:           -1,
		CheckpointInterval: -1, // recovery must come from the WAL alone
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	go func() {
		for range eng.Alerts() {
		}
	}()
	customer := testCustomers(1)[0]
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	submit := func(lo, hi int) {
		for s := lo; s < hi; s++ {
			if err := eng.Submit(customer, t0.Add(time.Duration(s)*time.Minute), udpFlows(customer, s, t0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(0, 6)
	if err := eng.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	submit(6, 12)
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}

	st := eng.Stats()
	if st.Restarts != 1 || st.Quarantined != 1 {
		t.Fatalf("restarts=%d quarantined=%d, want 1/1", st.Restarts, st.Quarantined)
	}
	if st.WALReplayed != 6 {
		t.Fatalf("replayed %d WAL messages, want the 6 pre-fault steps", st.WALReplayed)
	}
	if st.Lost != 0 || st.WALDropped != 0 {
		t.Fatalf("lost=%d walDropped=%d, want 0/0 (poison carried no telemetry)", st.Lost, st.WALDropped)
	}
	if st.Steps != 12 {
		t.Fatalf("steps=%d, want 12", st.Steps)
	}
	if st.DeadShards != 0 {
		t.Fatal("shard reported dead after a supervised recovery")
	}

	var got bytes.Buffer
	if err := eng.Checkpoint(&got); err != nil {
		t.Fatal(err)
	}
	// Reference: the same 12 steps with no fault anywhere near them.
	ref, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 12; s++ {
		ref.ObserveStep(customer, t0.Add(time.Duration(s)*time.Minute), udpFlows(customer, s, t0))
	}
	var want bytes.Buffer
	if err := ref.Checkpoint(&want); err != nil {
		t.Fatal(err)
	}
	gm, wm := scanCheckpoint(t, got.Bytes()), scanCheckpoint(t, want.Bytes())
	if len(gm[customer]) == 0 || len(gm[customer]) != len(wm[customer]) {
		t.Fatalf("channel count mismatch: got %d want %d", len(gm[customer]), len(wm[customer]))
	}
	for i := range gm[customer] {
		if !bytes.Equal(gm[customer][i], wm[customer][i]) {
			t.Fatalf("recovered stream state diverges from fault-free reference at channel %d", i)
		}
	}
}

// TestSupervisorReplayRecordsHistoryOnce: with RecordHistory on, the WAL
// replay of a supervised restart must not write the alerts it re-raises
// into the history registry a second time — A4's severity histogram would
// count each of them twice from then on.
func TestSupervisorReplayRecordsHistoryOnce(t *testing.T) {
	cfg := tinyMonitorConfig(t)
	cfg.RecordHistory = true
	eng, err := New(Config{
		Monitor:            cfg,
		Shards:             1,
		Policy:             Block,
		Watchdog:           -1,
		CheckpointInterval: -1, // recovery replays every step from the WAL
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	go func() {
		for range eng.Alerts() {
		}
	}()
	customer := testCustomers(1)[0]
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	for s := 0; s < 6; s++ {
		if err := eng.Submit(customer, t0.Add(time.Duration(s)*time.Minute), udpFlows(customer, s, t0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	recorded := func() int { return len(cfg.Extractor.History.AlertsBefore(customer, t0.Add(time.Hour))) }
	before := recorded()
	if before == 0 {
		t.Fatal("no alert recorded before the fault; the test needs one")
	}
	if err := eng.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Restarts != 1 || st.WALReplayed != 6 {
		t.Fatalf("restarts=%d replayed=%d, want 1/6", st.Restarts, st.WALReplayed)
	}
	if after := recorded(); after != before {
		t.Fatalf("history holds %d alerts after the restart, %d before it", after, before)
	}
	if !eng.shards[0].mon.cfg.RecordHistory {
		t.Fatal("the rebuilt monitor no longer records history")
	}
}

// TestSupervisorBoundedLoss pins the loss bound: with a WAL of 4 and no
// snapshots, a panic after 10 steps replays exactly the last 4 and
// accounts the 6 evicted ones as lost.
func TestSupervisorBoundedLoss(t *testing.T) {
	eng, err := New(Config{
		Monitor:            tinyMonitorConfig(t),
		Shards:             1,
		Policy:             Block,
		Watchdog:           -1,
		WAL:                4,
		CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	go func() {
		for range eng.Alerts() {
		}
	}()
	customer := testCustomers(1)[0]
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	for s := 0; s < 10; s++ {
		if err := eng.Submit(customer, t0.Add(time.Duration(s)*time.Minute), udpFlows(customer, s, t0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.WALReplayed != 4 {
		t.Fatalf("replayed %d, want 4 (WAL capacity)", st.WALReplayed)
	}
	if st.Lost != 6 || st.WALDropped != 6 {
		t.Fatalf("lost=%d walDropped=%d, want 6/6 (evicted beyond the window)", st.Lost, st.WALDropped)
	}
	if got := eng.shards[0].mon.StreamSteps(customer, ddos.UDPFlood); got != 4 {
		t.Fatalf("recovered stream has %d steps, want the 4 replayed", got)
	}
}

// TestDeadShardSurfacesEverywhere pins the Drain-deadlock fix: with
// supervision disabled a panicking shard dies, and every path that used
// to hang — Drain, Checkpoint, Submit, EndMitigation — now fails fast
// with ErrShardDead, while Stats and Health report the corpse.
func TestDeadShardSurfacesEverywhere(t *testing.T) {
	eng, err := New(Config{
		Monitor:            tinyMonitorConfig(t),
		Shards:             1,
		Policy:             Block,
		Watchdog:           -1,
		DrainTimeout:       2 * time.Second,
		DisableSupervision: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().DeadShards == 0 {
		if time.Now().After(deadline) {
			t.Fatal("shard death never surfaced in Stats")
		}
		time.Sleep(time.Millisecond)
	}
	if err := eng.Drain(); !errors.Is(err, ErrShardDead) {
		t.Fatalf("Drain on dead shard: %v, want ErrShardDead", err)
	}
	if err := eng.Checkpoint(&bytes.Buffer{}); !errors.Is(err, ErrShardDead) {
		t.Fatalf("Checkpoint on dead shard: %v, want ErrShardDead", err)
	}
	customer := testCustomers(1)[0]
	if err := eng.Submit(customer, time.Now(), nil); !errors.Is(err, ErrShardDead) {
		t.Fatalf("Submit to dead shard: %v, want ErrShardDead", err)
	}
	if err := eng.EndMitigation(customer, ddos.UDPFlood); !errors.Is(err, ErrShardDead) {
		t.Fatalf("EndMitigation to dead shard: %v, want ErrShardDead", err)
	}
	h := eng.Health()
	if h.OK {
		t.Fatal("health OK with a dead shard")
	}
	if !h.Shards[0].Dead || h.Shards[0].LastPanic == "" {
		t.Fatalf("shard health missing death detail: %+v", h.Shards[0])
	}
}

// TestBarrierTimeout pins that a wedged (not dead) shard cannot hang a
// barrier past DrainTimeout. The shard is wedged by stuffing the alert
// buffer: with nobody draining Alerts, the shard blocks mid-delivery.
func TestBarrierTimeout(t *testing.T) {
	cfg := tinyMonitorConfig(t)
	cfg.OverheadBound = 0.25
	eng, err := New(Config{
		Monitor:      cfg,
		Shards:       1,
		Policy:       Block,
		Watchdog:     -1,
		AlertBuffer:  1,
		DrainTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	customers := testCustomers(3)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	// No alert drainer: each customer alerts once its stream warms, three
	// alerts overflow the one-slot buffer, the shard wedges on delivery and
	// the barrier must time out.
	for s := 0; s < 12; s++ {
		for _, c := range customers {
			if err := eng.Submit(c, t0.Add(time.Duration(s)*time.Minute), udpFlows(c, s, t0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Drain(); !errors.Is(err, ErrBarrierTimeout) {
		t.Fatalf("Drain on wedged shard: %v, want ErrBarrierTimeout", err)
	}
	go func() {
		for range eng.Alerts() {
		}
	}()
	eng.Close()
}

// TestDegradedModesShedInOrder pins what each health state sheds:
// Degraded drops only traces, CDetOnly bypasses the model but keeps
// alerts flowing through the warm CDet fallback.
func TestDegradedModesShedInOrder(t *testing.T) {
	cfg := tinyMonitorConfig(t)
	// Short mitigation hold so the model re-alerts inside the 4-step
	// Degraded window regardless of where warm-up landed.
	cfg.MitigationTimeout = 2 * time.Minute
	fallback := cdet.Params{
		Name:         "fallback",
		AbsFloorMbps: 0.05,
		Multiplier:   2,
		SigmaK:       3,
		SustainSteps: 1,
		ReleaseSteps: 1,
		EWMAAlpha:    0.1,
	}
	eng, err := New(Config{
		Monitor:  cfg,
		Shards:   1,
		Policy:   Block,
		Watchdog: -1,
		Step:     time.Minute,
		Fallback: &fallback,
	})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []AlertEvent
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range eng.Alerts() {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}
	}()
	customer := testCustomers(1)[0]
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	calm := func(s int) []netflow.Record {
		return []netflow.Record{{
			Src: netip.MustParseAddr("11.2.3.4"), Dst: customer,
			Proto: netflow.ProtoUDP, SrcPort: 4000, DstPort: 80,
			Packets: 10, Bytes: 2000,
			Start: t0.Add(time.Duration(s) * time.Minute), End: t0.Add(time.Duration(s)*time.Minute + 30*time.Second),
		}}
	}
	// Warm the fallback baselines while Healthy (12 calm steps clears the
	// cdet 10-step warm-up).
	step := 0
	for ; step < 12; step++ {
		if err := eng.Submit(customer, t0.Add(time.Duration(step)*time.Minute), calm(step)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}

	// Degraded: the model still runs (alerts possible) but traces are shed.
	eng.ForceHealth(Degraded, "drill")
	for lim := step + 4; step < lim; step++ {
		if err := eng.Submit(customer, t0.Add(time.Duration(step)*time.Minute), udpFlows(customer, step, t0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	stDegraded := eng.Stats()
	if stDegraded.Steps != uint64(step) {
		t.Fatalf("degraded mode bypassed the model: steps=%d want %d", stDegraded.Steps, step)
	}

	// CDetOnly: inference shed, fallback confirms the volumetric flood.
	eng.ForceHealth(CDetOnly, "drill")
	attack := func(s int) []netflow.Record {
		return []netflow.Record{{
			Src: netip.MustParseAddr("12.9.9.9"), Dst: customer,
			Proto: netflow.ProtoUDP, SrcPort: 53, DstPort: 80,
			Packets: 100000, Bytes: 100e6,
			Start: t0.Add(time.Duration(s) * time.Minute), End: t0.Add(time.Duration(s)*time.Minute + 30*time.Second),
		}}
	}
	for lim := step + 3; step < lim; step++ {
		if err := eng.Submit(customer, t0.Add(time.Duration(step)*time.Minute), attack(step)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Steps != stDegraded.Steps {
		t.Fatalf("CDetOnly still ran the model: steps went %d -> %d", stDegraded.Steps, st.Steps)
	}
	if st.Bypassed != 3 {
		t.Fatalf("bypassed=%d, want the 3 CDetOnly steps", st.Bypassed)
	}
	if st.FallbackAlerts == 0 {
		t.Fatal("fallback raised no alert for a 13 Mbps flood")
	}
	if st.Steps+st.Missing+st.Bypassed != st.Submitted {
		t.Fatalf("accounting identity broken: steps %d + missing %d + bypassed %d != submitted %d",
			st.Steps, st.Missing, st.Bypassed, st.Submitted)
	}
	if st.Health != CDetOnly || st.HealthCause != "drill" {
		t.Fatalf("health state %v cause %q, want forced CDetOnly/drill", st.Health, st.HealthCause)
	}
	h := eng.Health()
	if !h.OK || h.State != "cdet-only" || h.Cause != "drill" {
		t.Fatalf("degraded health report wrong (must stay OK): %+v", h)
	}

	eng.Close()
	<-drained
	mu.Lock()
	defer mu.Unlock()
	var sawDegradedAlert, sawFallbackAlert bool
	for _, ev := range events {
		if ev.Alert.Source == fallback.Name {
			sawFallbackAlert = true
			if ev.Trace != nil {
				t.Fatal("fallback alert carries a model trace")
			}
			continue
		}
		if ev.Trace == nil {
			sawDegradedAlert = true
		}
	}
	if !sawDegradedAlert {
		t.Fatal("degraded-mode model alerts missing (or still carrying traces)")
	}
	if !sawFallbackAlert {
		t.Fatal("no fallback alert reached the alert channel")
	}
}

// TestHealthLadder unit-tests the state machine: escalation after the
// confirmation debounce, one rung at a time, and hysteretic recovery.
func TestHealthLadder(t *testing.T) {
	eng, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 1, Watchdog: -1, RecoverTicks: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	go func() {
		for range eng.Alerts() {
		}
	}()
	lad := &healthLadder{}
	tick := func(sig healthSignals) HealthState {
		desired, cause := decideHealth(sig)
		eng.stepHealth(desired, cause, lad)
		return eng.HealthState()
	}
	full := healthSignals{shedding: true, worstQueueFrac: 1.0}
	if st := tick(full); st != Healthy {
		t.Fatalf("escalated on a single tick: %v", st)
	}
	if st := tick(full); st != Degraded {
		t.Fatalf("after %d hot ticks: %v, want Degraded", pressureTicks, st)
	}
	if st := tick(full); st != Degraded {
		t.Fatalf("jumped a rung: %v", st)
	}
	if st := tick(full); st != CDetOnly {
		t.Fatalf("never reached CDetOnly: %v", st)
	}
	if len(eng.Transitions()) != 2 {
		t.Fatalf("transition history has %d entries, want 2", len(eng.Transitions()))
	}
	clean := healthSignals{shedding: true}
	for i := 0; i < 2; i++ {
		if st := tick(clean); st != CDetOnly {
			t.Fatalf("recovered before hysteresis (%d clean ticks): %v", i+1, st)
		}
	}
	if st := tick(clean); st != Degraded {
		t.Fatal("did not step down after RecoverTicks clean ticks")
	}
	// A pressure blip resets the recovery count.
	tick(clean)
	tick(healthSignals{shedding: true, worstQueueFrac: degradedQueueFrac})
	for i := 0; i < 2; i++ {
		if st := tick(clean); st != Degraded {
			t.Fatalf("blip did not reset hysteresis: %v", st)
		}
	}
	if st := tick(clean); st != Healthy {
		t.Fatal("never returned to Healthy")
	}
	// Dead shards pin the state at Degraded.
	if st, cause := decideHealth(healthSignals{deadShards: 1}); st != Degraded || cause == "" {
		t.Fatalf("dead shard decided %v/%q", st, cause)
	}
}

// TestWatchdogAutoDegradesAndRecovers runs the real watchdog loop: a
// wedged shard under ShedOldest saturates its mailbox, the engine rides
// the ladder to CDetOnly, and once the wedge clears it recovers to
// Healthy through hysteresis — no operator action anywhere.
func TestWatchdogAutoDegradesAndRecovers(t *testing.T) {
	cfg := tinyMonitorConfig(t)
	cfg.OverheadBound = 0.25
	eng, err := New(Config{
		Monitor:      cfg,
		Shards:       1,
		Queue:        4,
		Policy:       ShedOldest,
		AlertBuffer:  1,
		Watchdog:     5 * time.Millisecond,
		StallAfter:   20 * time.Millisecond,
		RecoverTicks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	customers := testCustomers(3)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s (state=%v cause=%q)", what, eng.HealthState(), eng.HealthCause())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	// Wedge the shard first: no alert drainer, so the three alerts raised
	// at warm-up (step 3) overflow the one-slot buffer — the first is
	// buffered, the second blocks the shard mid-delivery. The warm-up rows
	// are drained one at a time so ShedOldest cannot drop them (nothing
	// alerts before step 3, so these barriers cannot wedge).
	for s := 0; s < 4; s++ {
		for _, c := range customers {
			if err := eng.Submit(c, t0.Add(time.Duration(s)*time.Minute), udpFlows(c, s, t0)); err != nil {
				t.Fatal(err)
			}
		}
		if s < 3 {
			if err := eng.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor("shard wedged on alert delivery", func() bool { return eng.Stats().Alerts >= 2 })
	// Now flood the wedged shard: the mailbox pins at capacity and
	// ShedOldest converts the backlog into shed load.
	for s := 4; s < 12; s++ {
		for _, c := range customers {
			if err := eng.Submit(c, t0.Add(time.Duration(s)*time.Minute), udpFlows(c, s, t0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor("auto-escalation to CDetOnly", func() bool { return eng.HealthState() == CDetOnly })
	// Clear the wedge: drain alerts so the shard works the queue off.
	go func() {
		for range eng.Alerts() {
		}
	}()
	waitFor("hysteretic recovery to Healthy", func() bool { return eng.HealthState() == Healthy })
	trans := eng.Transitions()
	if len(trans) < 4 {
		t.Fatalf("expected ≥4 transitions (up and down the ladder), got %v", trans)
	}
	eng.Close()
}

// TestIncrementalCheckpointConcurrent is the -race proof for satellite 3:
// incremental checkpoints captured while producers are live restore to
// stream state bit-identical to a fresh monitor fed exactly the same
// step prefix.
func TestIncrementalCheckpointConcurrent(t *testing.T) {
	cfg := tinyMonitorConfig(t)
	cfg.Threshold = 1e-12 // never alert: the test needs no drainer-side effects
	eng, err := New(Config{
		Monitor:  cfg,
		Shards:   2,
		Policy:   Block,
		Watchdog: -1,
		// Snapshot after every message: the two snapshots awaited below then
		// appear however short a step is, not only if 160 steps outlast a
		// wall-clock interval.
		CheckpointInterval: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	go func() {
		for range eng.Alerts() {
		}
	}()
	customers := testCustomers(4)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	const steps = 40
	var wg sync.WaitGroup
	for _, c := range customers {
		wg.Add(1)
		go func(c netip.Addr) {
			defer wg.Done()
			for s := 0; s < steps; s++ {
				if err := eng.Submit(c, t0.Add(time.Duration(s)*time.Minute), udpFlows(c, s, t0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	// Capture incremental checkpoints mid-flight, keeping the last one
	// taken while producers were demonstrably still running.
	var capture bytes.Buffer
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := eng.Stats()
		if st.Snapshots >= 2 && st.Steps > 0 {
			capture.Reset()
			if err := eng.CheckpointIncremental(&capture); err != nil {
				t.Fatal(err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no background snapshot appeared")
		}
	}
	wg.Wait()
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}

	// Restore the mid-run capture into a fresh single-shard engine.
	restored, err := New(Config{Monitor: cfg, Shards: 1, Policy: Block, Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	go func() {
		for range restored.Alerts() {
		}
	}()
	if err := restored.Restore(bytes.NewReader(capture.Bytes())); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := restored.Checkpoint(&got); err != nil {
		t.Fatal(err)
	}
	gm := scanCheckpoint(t, got.Bytes())

	// Reference: each customer's restored stream must equal a fresh
	// monitor fed exactly the first k submitted batches, bit for bit.
	total := 0
	for _, c := range customers {
		k := restored.shards[0].mon.StreamSteps(c, ddos.UDPFlood)
		if k < 0 || k > steps {
			t.Fatalf("customer %v restored with %d steps", c, k)
		}
		total += k
		ref, err := NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < k; s++ {
			ref.ObserveStep(c, t0.Add(time.Duration(s)*time.Minute), udpFlows(c, s, t0))
		}
		var want bytes.Buffer
		if err := ref.Checkpoint(&want); err != nil {
			t.Fatal(err)
		}
		wm := scanCheckpoint(t, want.Bytes())
		if len(gm[c]) != len(wm[c]) {
			t.Fatalf("customer %v: %d channels restored, reference has %d", c, len(gm[c]), len(wm[c]))
		}
		for i := range gm[c] {
			if !bytes.Equal(gm[c][i], wm[c][i]) {
				t.Fatalf("customer %v channel %d: restored stream diverges from the %d-step prefix", c, i, k)
			}
		}
	}
	if total == 0 {
		t.Fatal("capture held no steps; snapshot cadence broken")
	}
}

// TestCheckpointIncrementalEmptyBoot pins that an engine that has never
// snapshotted still writes a restorable (empty) checkpoint.
func TestCheckpointIncrementalEmptyBoot(t *testing.T) {
	eng, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 3, Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	var buf bytes.Buffer
	if err := eng.CheckpointIncremental(&buf); err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("empty incremental checkpoint does not restore: %v", err)
	}
}

// TestInjectFaultBounds pins the InjectFault argument contract.
func TestInjectFaultBounds(t *testing.T) {
	eng, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 2, Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for _, bad := range []int{-1, 2, 99} {
		if err := eng.InjectFault(bad); err == nil {
			t.Fatalf("InjectFault(%d) accepted", bad)
		}
	}
}
