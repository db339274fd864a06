package engine

import (
	"bytes"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"
)

// TestNodeOfSingleNodeMatchesShardOf pins the compatibility contract of
// the two-level hash: a fleet of one node places every customer exactly
// where a single-process Engine does.
func TestNodeOfSingleNodeMatchesShardOf(t *testing.T) {
	for _, c := range testCustomers(64) {
		for _, shards := range []int{1, 2, 4, 7, 16} {
			node, shard := NodeOf(c, 1, shards)
			if node != 0 {
				t.Fatalf("NodeOf(%v, 1, %d) node = %d, want 0", c, shards, node)
			}
			if want := ShardOf(c, shards); shard != want {
				t.Fatalf("NodeOf(%v, 1, %d) shard = %d, want ShardOf = %d", c, shards, shard, want)
			}
		}
	}
}

// TestNodeOfV4MappedInvariant pins that an IPv4 customer and its
// v4-mapped IPv6 form land on the same (node, shard) — both levels hash
// the 16-byte As16 form.
func TestNodeOfV4MappedInvariant(t *testing.T) {
	for _, c := range testCustomers(32) {
		mapped := netip.AddrFrom16(c.As16())
		for _, nodes := range []int{1, 3, 4, 8} {
			n4, s4 := NodeOf(c, nodes, 4)
			n6, s6 := NodeOf(mapped, nodes, 4)
			if n4 != n6 || s4 != s6 {
				t.Fatalf("NodeOf(%v) = (%d,%d) but v4-mapped form = (%d,%d)", c, n4, s4, n6, s6)
			}
			if ShardOf(c, 4) != ShardOf(mapped, 4) {
				t.Fatalf("ShardOf v4-mapped invariant broken for %v", c)
			}
		}
	}
}

// TestNodeOfGolden pins concrete hash outputs so an accidental change to
// either level of the partition function — which would strand every
// deployed checkpoint and routing table — fails loudly.
func TestNodeOfGolden(t *testing.T) {
	cases := []struct {
		addr        string
		nodes       int
		shards      int
		node, shard int
	}{
		{"203.0.113.1", 4, 4, 1, 2},
		{"203.0.113.2", 4, 4, 1, 3},
		{"203.0.113.3", 4, 4, 1, 0},
		{"203.0.113.4", 4, 4, 2, 1},
		{"203.0.113.1", 3, 16, 2, 6},
		{"198.51.100.7", 4, 8, 0, 5},
	}
	for _, tc := range cases {
		node, shard := NodeOf(netip.MustParseAddr(tc.addr), tc.nodes, tc.shards)
		if node != tc.node || shard != tc.shard {
			t.Errorf("NodeOf(%s, %d, %d) = (%d, %d), want (%d, %d)",
				tc.addr, tc.nodes, tc.shards, node, shard, tc.node, tc.shard)
		}
	}
	// ShardOf's mapping predates NodeOf and must stay byte-for-byte what
	// existing XMC1 rehash-on-restore and ingest partitioning rely on.
	shardGolden := []struct {
		addr  string
		n     int
		shard int
	}{
		{"203.0.113.1", 4, 2},
		{"203.0.113.2", 4, 3},
		{"203.0.113.3", 4, 0},
		{"203.0.113.4", 4, 1},
	}
	for _, tc := range shardGolden {
		if got := ShardOf(netip.MustParseAddr(tc.addr), tc.n); got != tc.shard {
			t.Errorf("ShardOf(%s, %d) = %d, want %d", tc.addr, tc.n, got, tc.shard)
		}
	}
}

// TestNodeOfLevelsDecorrelated verifies the reason NodeOf remixes the
// hash: with nodes == shards, the customers owned by one node must still
// spread across that node's shards instead of all landing on shard i.
func TestNodeOfLevelsDecorrelated(t *testing.T) {
	const n = 4
	shardsSeen := make(map[int]map[int]bool)
	for i := 0; i < 256; i++ {
		c := netip.AddrFrom4([4]byte{10, 0, byte(i / 250), byte(i%250 + 1)})
		node, shard := NodeOf(c, n, n)
		if shardsSeen[node] == nil {
			shardsSeen[node] = make(map[int]bool)
		}
		shardsSeen[node][shard] = true
	}
	for node, shards := range shardsSeen {
		if len(shards) < 2 {
			t.Errorf("node %d's customers all landed on %d shard(s); levels are correlated", node, len(shards))
		}
	}
}

// subsetTestEngine builds an engine, feeds steps steps of UDP-flood
// traffic for every customer, and drains it. Alerts are discarded by a
// background reader.
func subsetTestEngine(t *testing.T, shards int, customers []netip.Addr, steps int, t0 time.Time) (*Engine, func()) {
	t.Helper()
	eng, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range eng.Alerts() {
		}
	}()
	for s := 0; s < steps; s++ {
		for _, c := range customers {
			if err := eng.Submit(c, t0.Add(time.Duration(s)*time.Minute), udpFlows(c, s, t0)); err != nil {
				t.Errorf("submit: %v", err)
			}
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	return eng, func() { eng.Close(); <-done }
}

// TestCheckpointCustomersSubsetRestore pins the migration segment
// round-trip: a per-customer-subset checkpoint restored onto a fresh
// engine reproduces exactly the subset's channels, bit-exactly — the
// fresh engine's own checkpoint is byte-identical to the subset file.
func TestCheckpointCustomersSubsetRestore(t *testing.T) {
	t0 := time.Unix(1700000000, 0).UTC()
	customers := testCustomers(8)
	eng, stop := subsetTestEngine(t, 4, customers, 12, t0)
	defer stop()

	subset := map[netip.Addr]bool{customers[1]: true, customers[4]: true, customers[6]: true}
	var seg bytes.Buffer
	n, err := eng.CheckpointCustomers(&seg, func(c netip.Addr) bool { return subset[c] })
	if err != nil {
		t.Fatal(err)
	}
	if n != len(subset) {
		t.Fatalf("CheckpointCustomers wrote %d channels, want %d", n, len(subset))
	}

	fresh, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	go func() {
		for range fresh.Alerts() {
		}
	}()
	if err := fresh.Restore(bytes.NewReader(seg.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Stats().Channels; got != len(subset) {
		t.Fatalf("restored engine has %d channels, want %d", got, len(subset))
	}
	var back bytes.Buffer
	if err := fresh.Checkpoint(&back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg.Bytes(), back.Bytes()) {
		t.Fatalf("subset restore is not bit-exact: segment %d bytes, re-checkpoint %d bytes", seg.Len(), back.Len())
	}
}

// TestRestoreCustomersMergeRemove walks the full live-migration state
// change: a subset segment merges into a running engine that already has
// its own customers (replacing any stale state for the moving customers),
// and the source drops the moved channels — with the moved streams
// bit-exact on the destination.
func TestRestoreCustomersMergeRemove(t *testing.T) {
	t0 := time.Unix(1700000000, 0).UTC()
	customers := testCustomers(6)
	src, stopSrc := subsetTestEngine(t, 4, customers[:4], 12, t0)
	defer stopSrc()
	dst, stopDst := subsetTestEngine(t, 2, customers[4:], 12, t0)
	defer stopDst()

	moving := map[netip.Addr]bool{customers[0]: true, customers[2]: true}
	movingPred := func(c netip.Addr) bool { return moving[c] }

	var seg bytes.Buffer
	if _, err := src.CheckpointCustomers(&seg, movingPred); err != nil {
		t.Fatal(err)
	}
	added, err := dst.RestoreCustomers(bytes.NewReader(seg.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if added != 2 {
		t.Fatalf("RestoreCustomers absorbed %d channels, want 2", added)
	}
	if got := dst.Stats().Channels; got != 4 {
		t.Fatalf("destination has %d channels after merge, want 4 (2 resident + 2 moved)", got)
	}
	removed, err := src.RemoveCustomers(movingPred)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("RemoveCustomers dropped %d channels, want 2", removed)
	}
	if got := src.Stats().Channels; got != 2 {
		t.Fatalf("source has %d channels after removal, want 2", got)
	}

	// The moved streams must be byte-identical on the destination.
	var dstSeg bytes.Buffer
	if _, err := dst.CheckpointCustomers(&dstSeg, movingPred); err != nil {
		t.Fatal(err)
	}
	srcChans := segChans(t, seg.Bytes())
	dstChans := segChans(t, dstSeg.Bytes())
	if len(srcChans) != len(dstChans) {
		t.Fatalf("moved channel count: src %d, dst %d", len(srcChans), len(dstChans))
	}
	for addr, raw := range srcChans {
		if !bytes.Equal(raw, dstChans[addr]) {
			t.Errorf("stream for %v changed bytes across the migration", addr)
		}
	}

	// A second merge of the same customers replaces, not duplicates.
	if _, err := dst.RestoreCustomers(bytes.NewReader(seg.Bytes()), nil); err != nil {
		t.Fatal(err)
	}
	if got := dst.Stats().Channels; got != 4 {
		t.Fatalf("re-merge duplicated channels: have %d, want 4", got)
	}

	// The pred filter absorbs only matching customers.
	third, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer third.Close()
	only := customers[0]
	absorbed, err := third.RestoreCustomers(bytes.NewReader(seg.Bytes()), func(c netip.Addr) bool { return c == only })
	if err != nil {
		t.Fatal(err)
	}
	if absorbed != 1 || third.Stats().Channels != 1 {
		t.Fatalf("pred-filtered merge absorbed %d channels (engine has %d), want 1", absorbed, third.Stats().Channels)
	}
}

// segChans flattens a version-2 checkpoint into customer → raw channel
// record bytes (framing level, shard layout ignored).
func segChans(t *testing.T, data []byte) map[netip.Addr][]byte {
	t.Helper()
	segs, err := checkpointSegments(data)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[netip.Addr][]byte)
	for _, seg := range segs {
		chans, err := scanMonitorBody(seg)
		if err != nil {
			t.Fatal(err)
		}
		for _, rc := range chans {
			out[rc.customer] = rc.raw
		}
	}
	return out
}

// TestControlOpsConcurrentWithSteps: checkpoint, subset checkpoint, subset
// restore and removal each run on the shard goroutines in mailbox order,
// so none needs a Drain first. One goroutine streams steps (Block) for
// customers that stay put while the test moves other customers' state out
// of and back into the same shards. The staying customers must end
// byte-equal to a serial monitor fed the same steps, the moving ones
// byte-equal to their segment, every submitted message must be accounted
// for, and a checkpoint issued while steps wait in held mailboxes must
// hold them.
func TestControlOpsConcurrentWithSteps(t *testing.T) {
	const warm, live, rounds = 6, 40, 8
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	customers := testCustomers(8)
	stay, move := customers[:4], customers[4:]
	moving := func(c netip.Addr) bool { return slices.Contains(move, c) }
	cfg := tinyMonitorConfig(t)
	eng, err := New(Config{Monitor: cfg, Shards: 4, Policy: Block, Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	go func() {
		for range eng.Alerts() {
		}
	}()
	ref, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// step submits customer c's step s, a missing step every seventh, and
	// feeds the same to ref for the staying customers.
	step := func(c netip.Addr, s int) error {
		at := t0.Add(time.Duration(s) * time.Minute)
		if s%7 == 3 {
			if !moving(c) {
				ref.ObserveMissing(c, at)
			}
			return eng.ObserveMissing(c, at)
		}
		flows := udpFlows(c, s, t0)
		if !moving(c) {
			ref.ObserveStep(c, at, flows)
		}
		return eng.Submit(c, at, flows)
	}
	for s := 0; s < warm; s++ {
		for _, c := range customers {
			if err := step(c, s); err != nil {
				t.Fatal(err)
			}
		}
	}
	var seg bytes.Buffer
	if n, err := eng.CheckpointCustomers(&seg, moving); err != nil || n != len(move) {
		t.Fatalf("CheckpointCustomers: %d channels, %v; want %d", n, err, len(move))
	}

	// The producer streams until the rounds are over, and at least live
	// ticks, so every round overlaps it; it reports the tick it stopped at.
	stop, streamed := make(chan struct{}), make(chan int, 1)
	go func() {
		s := warm
		for ; s < warm+live || !isClosed(stop); s++ {
			for _, c := range stay {
				if err := step(c, s); err != nil {
					t.Error(err)
					streamed <- s
					return
				}
			}
		}
		streamed <- s
	}()
	var full, again bytes.Buffer
	for r := 0; r < rounds; r++ {
		full.Reset()
		if err := eng.Checkpoint(&full); err != nil {
			t.Fatal(err)
		}
		again.Reset()
		if n, err := eng.CheckpointCustomers(&again, moving); err != nil || n != len(move) {
			t.Fatalf("round %d: CheckpointCustomers: %d channels, %v", r, n, err)
		}
		if !bytes.Equal(again.Bytes(), seg.Bytes()) {
			t.Fatalf("round %d: the moving customers' segment changed while they were idle", r)
		}
		if n, err := eng.RemoveCustomers(moving); err != nil || n != len(move) {
			t.Fatalf("round %d: RemoveCustomers: %d channels, %v", r, n, err)
		}
		if n, err := eng.RestoreCustomers(bytes.NewReader(seg.Bytes()), nil); err != nil || n != len(move) {
			t.Fatalf("round %d: RestoreCustomers: %d channels, %v", r, n, err)
		}
	}
	close(stop)
	end := <-streamed
	if t.Failed() {
		t.FailNow()
	}

	// Park every shard, queue one more tick behind the parks, and take a
	// checkpoint behind that: it must hold the tick.
	release := sync.OnceFunc(holdShards(eng))
	defer release() // a failed wait below must not leave the shards parked
	waitQueues := func(want func(i int) int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for i, s := range eng.shards {
			for len(s.mail) != want(i) {
				if time.Now().After(deadline) {
					t.Fatalf("shard %d: %d queued, want %d", i, len(s.mail), want(i))
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	waitQueues(func(int) int { return 0 })
	for _, c := range stay {
		if err := step(c, end); err != nil {
			t.Fatal(err)
		}
	}
	queued := make([]int, len(eng.shards))
	for i, s := range eng.shards {
		queued[i] = len(s.mail)
	}
	var held bytes.Buffer
	ckpt := make(chan error, 1)
	go func() { ckpt <- eng.Checkpoint(&held) }()
	waitQueues(func(i int) int { return queued[i] + 1 })
	release()
	if err := <-ckpt; err != nil {
		t.Fatal(err)
	}

	var want bytes.Buffer
	if err := ref.Checkpoint(&want); err != nil {
		t.Fatal(err)
	}
	got, serial, moved := scanCheckpoint(t, held.Bytes()), scanCheckpoint(t, want.Bytes()), scanCheckpoint(t, seg.Bytes())
	for _, c := range stay {
		if len(got[c]) == 0 || !slices.EqualFunc(got[c], serial[c], bytes.Equal) {
			t.Errorf("%v: %d channel records differ from the serial monitor's %d", c, len(got[c]), len(serial[c]))
		}
	}
	for _, c := range move {
		if !slices.EqualFunc(got[c], moved[c], bytes.Equal) {
			t.Errorf("%v: moved channel records differ from the segment", c)
		}
	}
	st := eng.Stats()
	if st.Submitted != st.Steps+st.Missing+st.Shed+st.Bypassed {
		t.Errorf("submitted %d != steps %d + missing %d + shed %d + bypassed %d",
			st.Submitted, st.Steps, st.Missing, st.Shed, st.Bypassed)
	}
	t.Logf("%d rounds of control ops against %d streamed ticks", rounds, end-warm)
}

func isClosed(c chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}
