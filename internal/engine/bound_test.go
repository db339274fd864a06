package engine

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// boundEngine is a one-shard engine whose record bound is 256 × queue.
func boundEngine(t *testing.T, queue int, policy Policy, dead bool) *Engine {
	t.Helper()
	eng, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 1, Queue: queue, Policy: policy,
		Watchdog: -1, CheckpointInterval: -1, AlertBuffer: 1 << 12, DisableSupervision: dead})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// waitForWaiter returns once a Submit is waiting for room on s.
func waitForWaiter(t *testing.T, s *shard) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.waiters.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no Submit ever waited on the record bound")
		}
		runtime.Gosched()
	}
}

var boundT0 = time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)

// TestSubmitOnRecordBoundWakesOnClose: a Submit waiting for room under
// the record bound (not for mailbox space: the mailbox has a free slot)
// returns ErrClosed when the engine closes.
func TestSubmitOnRecordBoundWakesOnClose(t *testing.T) {
	eng := boundEngine(t, 2, Block, false) // 512 records, two slots
	c := testCustomers(1)[0]
	release := holdShards(eng)
	if err := eng.Submit(c, boundT0, floodFlows(c, 400, boundT0)); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- eng.Submit(c, boundT0.Add(time.Minute), floodFlows(c, 200, boundT0)) }()
	waitForWaiter(t, eng.shards[0])
	closed := make(chan struct{})
	go func() { eng.Close(); close(closed) }()
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit waiting on the record bound: %v at Close, want ErrClosed", err)
	}
	release()
	<-closed
}

// TestSubmitOnRecordBoundWakesOnDeadShard: the same wait returns
// ErrShardDead when the shard dies (supervision off, injected fault).
func TestSubmitOnRecordBoundWakesOnDeadShard(t *testing.T) {
	eng := boundEngine(t, 4, Block, true) // 1 024 records
	defer eng.Close()
	c := testCustomers(1)[0]
	var once sync.Once
	hold := holdShards(eng)
	release := func() { once.Do(hold) }
	defer release()                            // before Close, should the test fail while holding
	if err := eng.InjectFault(0); err != nil { // queued behind the hold
		t.Fatal(err)
	}
	if err := eng.Submit(c, boundT0, floodFlows(c, 1000, boundT0)); err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- eng.Submit(c, boundT0.Add(time.Minute), floodFlows(c, 100, boundT0)) }()
	waitForWaiter(t, eng.shards[0])
	release() // the shard meets the fault and dies with 1 000 records queued
	if err := <-errc; !errors.Is(err, ErrShardDead) {
		t.Fatalf("Submit waiting on the record bound: %v when the shard died, want ErrShardDead", err)
	}
}

// TestSubmitAdmitsOversizedStepIntoEmptyShard: a step larger than the
// whole bound is admitted into a shard that holds no records, so it can
// never wait forever; the next one waits until it has been handled.
func TestSubmitAdmitsOversizedStepIntoEmptyShard(t *testing.T) {
	eng := boundEngine(t, 1, Block, false) // 256 records
	defer eng.Close()
	c := testCustomers(1)[0]
	for i := 0; i < 3; i++ {
		at := boundT0.Add(time.Duration(i) * time.Minute)
		if err := eng.Submit(c, at, floodFlows(c, 1000, at)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Steps != 3 || st.RecordsQueued != 0 || st.RecordsHighWater != 1000 {
		t.Fatalf("steps %d, records queued %d, high water %d; want 3, 0, 1000 (one step at a time)",
			st.Steps, st.RecordsQueued, st.RecordsHighWater)
	}
}

// TestShedOldestShedsByRecords: under ShedOldest a step that would pass
// the record bound sheds the oldest queued telemetry until it fits, with
// the mailbox far from full, and every submitted message is still
// accounted for once the shard has drained.
func TestShedOldestShedsByRecords(t *testing.T) {
	eng := boundEngine(t, 4, ShedOldest, false) // 1 024 records, four slots
	defer eng.Close()
	s := eng.shards[0]
	cs := testCustomers(2)
	var once sync.Once
	hold := holdShards(eng)
	release := func() { once.Do(hold) }
	defer release()
	for len(s.mail) > 0 { // the shard is parked in the hold
		runtime.Gosched()
	}
	if err := eng.ObserveMissing(cs[1], boundT0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		at := boundT0.Add(time.Duration(i) * time.Minute)
		if err := eng.Submit(cs[0], at, floodFlows(cs[0], 300, at)); err != nil {
			t.Fatal(err)
		}
	}
	// Queued: missing, 300, 300, 300 — a full mailbox at 900 records. The
	// next step sheds the missing one and the first step of records.
	if err := eng.Submit(cs[0], boundT0.Add(3*time.Minute), floodFlows(cs[0], 300, boundT0)); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Shed != 2 || st.RecordsQueued != 900 || st.RecordsHighWater != 900 || st.QueueLen != 3 {
		t.Fatalf("shed %d, records queued %d, high water %d, mailbox %d; want 2, 900, 900, 3",
			st.Shed, st.RecordsQueued, st.RecordsHighWater, st.QueueLen)
	}
	// A step that fits sheds nothing.
	if err := eng.Submit(cs[1], boundT0.Add(3*time.Minute), floodFlows(cs[1], 100, boundT0)); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Shed != 2 || st.RecordsQueued != 1000 {
		t.Fatalf("a fitting step: shed %d, records queued %d; want 2, 1000", st.Shed, st.RecordsQueued)
	}
	release()
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	st = eng.Stats()
	if st.Steps+st.Missing+st.Bypassed+st.Shed != st.Submitted || st.Submitted != 6 || st.RecordsQueued != 0 {
		t.Fatalf("steps %d + missing %d + bypassed %d + shed %d != submitted %d (want 6), %d records left queued",
			st.Steps, st.Missing, st.Bypassed, st.Shed, st.Submitted, st.RecordsQueued)
	}
}

// TestRecordBoundProducerFlood: producers flood two shards with steps of
// which only one fits the bound at a time (run under -race by make race).
// Every step is handled, nothing is left queued, and no shard ever held
// more than the bound.
func TestRecordBoundProducerFlood(t *testing.T) {
	eng, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 2, Queue: 2, Policy: Block,
		Watchdog: -1, CheckpointInterval: -1, AlertBuffer: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	const producers, steps, records = 4, 40, 300
	cs := testCustomers(producers * 2)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				c := cs[2*p+i%2]
				at := boundT0.Add(time.Duration(i/2) * time.Minute)
				if err := eng.Submit(c, at, floodFlows(c, records, at)); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Steps != producers*steps || st.RecordsQueued != 0 {
		t.Fatalf("steps %d, records queued %d; want %d, 0", st.Steps, st.RecordsQueued, producers*steps)
	}
	for _, ss := range st.Shards {
		if ss.RecordsHighWater > 512 {
			t.Errorf("shard %d held %d records, bound 512", ss.Shard, ss.RecordsHighWater)
		}
	}
}
