package netflow

import (
	"net/netip"
	"testing"
	"time"
)

var aggBase = time.Date(2019, 7, 3, 12, 0, 0, 0, time.UTC)

func aggRec(dst netip.Addr, at time.Time, bytes uint32) Record {
	return Record{
		Src: netip.MustParseAddr("11.1.1.1"), Dst: dst,
		Proto: ProtoUDP, Packets: 1, Bytes: bytes,
		Start: at, End: at.Add(10 * time.Second),
	}
}

func TestAggregatorInOrder(t *testing.T) {
	d1 := netip.MustParseAddr("23.1.1.1")
	d2 := netip.MustParseAddr("23.1.1.2")
	a := NewAggregator(time.Minute, 0)
	// Two records in minute 0; nothing seals while the watermark is inside
	// minute 0.
	if got := a.Add(aggRec(d1, aggBase.Add(5*time.Second), 100)); len(got) != 0 {
		t.Fatalf("sealed too early: %v", got)
	}
	if got := a.Add(aggRec(d2, aggBase.Add(30*time.Second), 200)); len(got) != 0 {
		t.Fatalf("sealed too early: %v", got)
	}
	// A record at 70 s moves the watermark past minute 0's end (lateness 0),
	// sealing it.
	sealed := a.Add(aggRec(d1, aggBase.Add(70*time.Second), 300))
	if len(sealed) != 1 || !sealed[0].Start.Equal(aggBase) {
		t.Fatalf("minute 0 should seal: %v", sealed)
	}
	if len(sealed[0].ByDst[d1]) != 1 || len(sealed[0].ByDst[d2]) != 1 {
		t.Fatalf("bucket 0 contents wrong: %v", sealed[0].ByDst)
	}
	// Jumping to minute 3 seals minute 1.
	sealed = a.Add(aggRec(d1, aggBase.Add(3*time.Minute), 400))
	if len(sealed) != 1 || !sealed[0].Start.Equal(aggBase.Add(time.Minute)) {
		t.Fatalf("minute 1 should seal: %v", sealed)
	}
	rest := a.Flush()
	if len(rest) != 1 || !rest[0].Start.Equal(aggBase.Add(3*time.Minute)) {
		t.Fatalf("flush = %v", rest)
	}
}

func TestAggregatorOutOfOrderWithinLateness(t *testing.T) {
	d := netip.MustParseAddr("23.1.1.1")
	a := NewAggregator(time.Minute, 2*time.Minute)
	a.Add(aggRec(d, aggBase.Add(2*time.Minute), 1))
	// A record from minute 0 arrives late but within the 2-minute allowance.
	sealed := a.Add(aggRec(d, aggBase.Add(30*time.Second), 2))
	if len(sealed) != 0 {
		t.Fatal("lateness allowance must keep the bucket open")
	}
	if a.Dropped() != 0 {
		t.Fatal("in-allowance record must not be dropped")
	}
	all := a.Flush()
	if len(all) != 2 || len(all[0].ByDst[d]) != 1 {
		t.Fatalf("flush = %+v", all)
	}
}

func TestAggregatorDropsTooLate(t *testing.T) {
	d := netip.MustParseAddr("23.1.1.1")
	a := NewAggregator(time.Minute, 0)
	a.Add(aggRec(d, aggBase.Add(10*time.Minute), 1))
	a.Add(aggRec(d, aggBase, 2)) // ten minutes late, zero allowance
	if a.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", a.Dropped())
	}
	all := a.Flush()
	if len(all) != 1 {
		t.Fatalf("late record leaked into %d buckets", len(all))
	}
}

func TestAggregatorDefaults(t *testing.T) {
	a := NewAggregator(0, -time.Minute)
	if a.Step != time.Minute || a.Lateness != 0 {
		t.Fatalf("defaults wrong: %v %v", a.Step, a.Lateness)
	}
}

func TestAggregatorFlushEmpty(t *testing.T) {
	a := NewAggregator(time.Minute, 0)
	if got := a.Flush(); len(got) != 0 {
		t.Fatalf("empty flush = %v", got)
	}
}

// TestAggregatorFlushDeterministicOrder pins that sealed batches come out
// oldest-first from both Flush and watermark-driven sealing, regardless of
// map iteration order: many buckets are opened in shuffled order, and every
// seal must yield a Start-sorted sequence.
func TestAggregatorFlushDeterministicOrder(t *testing.T) {
	d := netip.MustParseAddr("23.1.1.1")
	perm := []int{7, 2, 9, 0, 5, 3, 8, 1, 6, 4}
	a := NewAggregator(time.Minute, time.Hour) // generous lateness: nothing seals early
	for _, m := range perm {
		a.Add(aggRec(d, aggBase.Add(time.Duration(m)*time.Minute), 1))
	}
	out := a.Flush()
	if len(out) != len(perm) {
		t.Fatalf("flushed %d buckets, want %d", len(out), len(perm))
	}
	for i, b := range out {
		if want := aggBase.Add(time.Duration(i) * time.Minute); !b.Start.Equal(want) {
			t.Fatalf("flush order broken at %d: got %v, want %v", i, b.Start, want)
		}
	}

	// Watermark-driven sealing (advance) must come out sorted too: open
	// several buckets within the lateness allowance, then jump the
	// watermark far ahead so they all seal in one Add.
	a2 := NewAggregator(time.Minute, 10*time.Minute)
	for _, m := range perm {
		a2.Add(aggRec(d, aggBase.Add(time.Duration(m)*time.Minute), 1))
	}
	sealed := a2.Add(aggRec(d, aggBase.Add(2*time.Hour), 1))
	if len(sealed) != len(perm) {
		t.Fatalf("sealed %d buckets, want %d", len(sealed), len(perm))
	}
	for i := 1; i < len(sealed); i++ {
		if sealed[i].Start.Before(sealed[i-1].Start) {
			t.Fatalf("advance order broken at %d: %v after %v", i, sealed[i].Start, sealed[i-1].Start)
		}
	}
}

// TestAggregatorRecycle verifies the free-lists: recycled storage is
// reused (pool hits), handed-back slices are emptied, and RecycleShell
// leaves record slices with the caller.
func TestAggregatorRecycle(t *testing.T) {
	d := netip.MustParseAddr("23.1.1.1")
	a := NewAggregator(time.Minute, 0)
	a.Add(aggRec(d, aggBase, 1))
	a.Add(aggRec(d, aggBase.Add(10*time.Second), 2))
	sealed := a.Add(aggRec(d, aggBase.Add(2*time.Minute), 3))
	if len(sealed) != 1 || len(sealed[0].ByDst[d]) != 2 {
		t.Fatalf("sealed = %+v", sealed)
	}
	recs := sealed[0].ByDst[d]
	a.Recycle(sealed[0])
	_, misses0 := a.PoolStats()

	// The next bucket and destination list must come from the free-lists:
	// no new misses, and the record slice storage is reused.
	a.Add(aggRec(d, aggBase.Add(5*time.Minute), 4))
	hits, misses := a.PoolStats()
	if misses != misses0 {
		t.Fatalf("recycled add missed the pool: misses %d -> %d", misses0, misses)
	}
	if hits == 0 {
		t.Fatal("expected pool hits after Recycle")
	}
	sealed = a.Flush()
	got := sealed[0].ByDst[d]
	if len(got) != 1 || got[0].Bytes != 4 {
		t.Fatalf("recycled bucket contents wrong: %+v", got)
	}
	if &recs[:1][0] != &got[0] {
		t.Fatal("recycled record slice was not reused")
	}

	// RecycleShell: map returns, records stay valid for the caller.
	kept := sealed[0].ByDst[d]
	a.RecycleShell(sealed[0])
	if kept[0].Bytes != 4 {
		t.Fatal("RecycleShell must leave handed-off records untouched")
	}
}

// TestAggregatorAddAllocFree pins the steady-state allocation contract:
// once the free-lists are warm, Add (including sealing) allocates nothing.
func TestAggregatorAddAllocFree(t *testing.T) {
	dsts := make([]netip.Addr, 8)
	for i := range dsts {
		dsts[i] = netip.AddrFrom4([4]byte{23, 1, 1, byte(i + 1)})
	}
	a := NewAggregator(time.Minute, 0)
	step := 0
	feed := func() {
		at := aggBase.Add(time.Duration(step) * time.Minute)
		step++
		for _, d := range dsts {
			for k := 0; k < 4; k++ {
				for _, b := range a.Add(aggRec(d, at.Add(time.Duration(k)*time.Second), 100)) {
					a.Recycle(b)
				}
			}
		}
	}
	for i := 0; i < 16; i++ { // warm the free-lists
		feed()
	}
	if allocs := testing.AllocsPerRun(100, feed); allocs != 0 {
		t.Fatalf("steady-state Add allocs/op = %v, want 0", allocs)
	}
}

// TestAggregatorRecycleBounded pins the record free-list's bound: a step
// of more destinations than maxFreeRecs recycles only maxFreeRecs of their
// slices, and its map still comes back.
func TestAggregatorRecycleBounded(t *testing.T) {
	a := NewAggregator(time.Minute, 0)
	for i := 0; i < 2*maxFreeRecs; i++ {
		a.Add(aggRec(netip.AddrFrom4([4]byte{23, 1, byte(i >> 8), byte(i)}), aggBase, 1))
	}
	for _, b := range a.Flush() {
		a.Recycle(b)
	}
	if len(a.freeRecs) != maxFreeRecs || len(a.freeMaps) != 1 {
		t.Fatalf("after recycling %d destinations: %d record slices and %d maps free, want %d and 1",
			2*maxFreeRecs, len(a.freeRecs), len(a.freeMaps), maxFreeRecs)
	}
	if n := len(a.freeMaps[0]); n != 0 {
		t.Fatalf("the recycled map holds %d entries", n)
	}
}
