package engine

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/netflow"
)

// monitorBytes is the XMC1 checkpoint of a shard's monitor. Call it only
// while the shard is idle (after a Drain).
func monitorBytes(t *testing.T, s *shard) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.mon.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestWALReplayMatchesLive: a shard rebuilt from its snapshot and WAL holds
// the live monitor's exact state even though the extractor's registries
// changed after the logged steps were scored. The steps alert (so their
// signature checks run and, with RecordHistory on, feed the history the
// later steps read), come in runs and include a missing step; then a
// blocklist entry dated before all of them lists their sources. Replaying
// the logged vectors gives the live bytes; extracting the steps again
// would mark those sources in A1.
func TestWALReplayMatchesLive(t *testing.T) {
	cfg := tinyMonitorConfig(t)
	cfg.RecordHistory = true
	cfg.MitigationTimeout = 2 * time.Minute // alert again every few steps
	eng, err := New(Config{Monitor: cfg, Shards: 1, Policy: Block, Watchdog: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	go func() {
		for range eng.Alerts() {
		}
	}()
	customers := testCustomers(3)
	ticks := func(lo, hi int) {
		release := holdShards(eng) // each tick's steps queue up and step as a run
		for s := lo; s < hi; s++ {
			at := t0.Add(time.Duration(s) * time.Minute)
			for i, c := range customers {
				var err error
				if s == 6 && i == 0 {
					err = eng.ObserveMissing(c, at)
				} else {
					err = eng.Submit(c, at, udpFlows(c, s+i, t0))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		release()
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	ticks(0, 4)
	// A full checkpoint is a recovery basis: the rebuild starts from it and
	// replays the WAL of the six ticks after it.
	if err := eng.Checkpoint(io.Discard); err != nil {
		t.Fatal(err)
	}
	before := eng.Stats().Alerts
	ticks(4, 10)
	// Alerts at the steps the WAL holds. A shard counts an alert before it
	// sends it, so after Drain the counter holds every one of them, while
	// the channel may not have delivered them yet.
	logged := eng.Stats().Alerts - before
	s := eng.shards[0]
	live := monitorBytes(t, s)
	for k := 1; k <= 20; k++ {
		cfg.Extractor.Blocklists.Add(blocklist.DDoSSource, netip.AddrFrom4([4]byte{11, 1, byte(k), 0}), t0.Add(-time.Hour), 0)
	}
	if err := eng.InjectFault(0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Restarts != 1 || st.WALReplayed != 6*3 || st.Lost != 0 {
		t.Fatalf("restarts=%d replayed=%d lost=%d, want 1/18/0", st.Restarts, st.WALReplayed, st.Lost)
	}
	if logged == 0 {
		t.Fatal("no alert among the logged steps; the test needs their signature checks")
	}
	if !bytes.Equal(monitorBytes(t, s), live) {
		t.Fatal("the snapshot+WAL rebuild differs from the live monitor")
	}
}

// floodFlows is one step of n UDP records from n distinct sources.
func floodFlows(customer netip.Addr, n int, at time.Time) []netflow.Record {
	flows := make([]netflow.Record, n)
	for i := range flows {
		flows[i] = netflow.Record{
			Src:     netip.AddrFrom4([4]byte{10, byte(i >> 16), byte(i >> 8), byte(i)}),
			Dst:     customer,
			Proto:   netflow.ProtoUDP,
			SrcPort: uint16(1024 + i),
			DstPort: 53,
			Packets: 4,
			Bytes:   4000,
			Start:   at,
			End:     at.Add(30 * time.Second),
		}
	}
	return flows
}

// freeRecs empties a shard's record free-list and returns what it held.
func freeRecs(s *shard) [][]netflow.Record {
	s.recs.mu.Lock()
	defer s.recs.mu.Unlock()
	free := s.recs.free
	s.recs.free, s.recs.freeCap = nil, 0
	return free
}

// TestEngineSubmitRecyclesRecords pins the engine's ownership of record
// storage: Submit copies a step into a shard buffer that comes back once
// the step is handled, so a warm 2 000-record step allocates nothing from
// Submit to Drain; a burst leaves at most maxFreeRecBufs buffers behind;
// and a step shed by ShedOldest or bypassed in CDetOnly returns its buffer
// too.
func TestEngineSubmitRecyclesRecords(t *testing.T) {
	cfg := tinyMonitorConfig(t)
	cfg.Threshold = 1e-12 // an alert allocates
	ecfg := Config{Monitor: cfg, Shards: 1, Policy: Block, WAL: 16, Watchdog: -1, CheckpointInterval: -1}
	eng, err := New(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	go func() {
		for range eng.Alerts() {
		}
	}()
	s := eng.shards[0]
	c := testCustomers(1)[0]
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	flows := floodFlows(c, 2000, t0)
	step := 0
	submit := func(flows []netflow.Record) {
		if err := eng.Submit(c, t0.Add(time.Duration(step)*time.Minute), flows); err != nil {
			t.Fatal(err)
		}
		step++
	}
	drain := func() {
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ { // past a full WAL: the vector arena is grown
		submit(flows)
	}
	drain()

	if !raceEnabled {
		base := testing.AllocsPerRun(20, drain)
		if got := testing.AllocsPerRun(20, func() { submit(flows); drain() }); got != base {
			t.Errorf("Submit…Drain of a %d-record step: %v allocs, Drain alone %v", len(flows), got, base)
		}
	}

	release := holdShards(eng)
	for i := 0; i < 3*maxFreeRecBufs; i++ {
		submit(flows[:10])
	}
	release()
	drain()
	free := freeRecs(s)
	records := 0
	for _, b := range free {
		records += cap(b)
	}
	if len(free) > maxFreeRecBufs || records > maxFreeRecBufs*len(flows) {
		t.Errorf("after a burst the free-list holds %d buffers of %d records, bound %d buffers of ≤%d",
			len(free), records, maxFreeRecBufs, len(flows))
	}

	eng.ForceHealth(CDetOnly, "test")
	submit(flows)
	drain()
	eng.ForceHealth(Healthy, "test")
	if free := freeRecs(s); s.bypassed.Load() != 1 || len(free) != 1 || cap(free[0]) < len(flows) {
		t.Errorf("CDetOnly: bypassed %d, free-list %d buffers; want the bypassed step's buffer back", s.bypassed.Load(), len(free))
	}

	ecfg.Policy, ecfg.Queue = ShedOldest, 1
	shed, err := New(ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shed.Close()
	ss := shed.shards[0]
	release = holdShards(shed)
	for len(ss.mail) > 0 { // the shard has taken the hold and is parked in it
		runtime.Gosched()
	}
	for i := 0; i < 2; i++ { // the second Submit sheds the first
		if err := shed.Submit(c, t0, flows); err != nil {
			t.Fatal(err)
		}
	}
	if free := freeRecs(ss); ss.shed.Load() != 1 || len(free) != 1 || cap(free[0]) < len(flows) {
		t.Errorf("ShedOldest: shed %d, free-list %d buffers; want the shed step's buffer back", ss.shed.Load(), len(free))
	}
	release()
	if err := shed.Drain(); err != nil {
		t.Fatal(err)
	}
	if free := freeRecs(ss); len(free) != 1 {
		t.Errorf("ShedOldest: %d buffers back after the kept step, want 1", len(free))
	}
}

// FuzzWALVector: the WAL's vector encoding round-trips every float64 bit
// pattern — -0, NaN payloads, subnormals — through a shard's vector arena
// small enough to wrap, evict and grow. The input is a sequence of
// vectors: one byte for the length (mod 130: 0 logs a missing step, past
// 64 the bitmap takes two words), then that many little-endian float64s
// (a short input reads as zero bits). After every append each logged
// vector must decode to the bits it was logged with — compared by bit
// pattern, never by value, since -0 == 0 and NaN != NaN — and the arena
// must stay within its growth bound.
func FuzzWALVector(f *testing.F) {
	const maxDim = 129
	f.Fuzz(func(t *testing.T, data []byte) {
		const initial = 150
		s := &shard{wal: make([]walEntry, 5), vecs: vecArena{words: make([]uint64, initial)}}
		var logged [][]float64 // the vectors s.wal holds, oldest first
		for len(data) > 0 {
			var x []float64
			dim := int(data[0]) % (maxDim + 1)
			data = data[1:]
			if dim > 0 {
				x = make([]float64, dim)
				for i := range x {
					var b [8]byte
					data = data[copy(b[:], data):]
					x[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
				}
			}
			op := opStep
			if x == nil {
				op = opMissing
			}
			s.walAppend(&message{op: op}, x, 0)
			if logged = append(logged, x); len(logged) > len(s.wal) {
				logged = logged[1:]
			}
			if s.walN != len(logged) {
				t.Fatalf("WAL holds %d entries, want %d", s.walN, len(logged))
			}
			for i, want := range logged {
				en := s.wal[(s.walHead+i)%len(s.wal)]
				if en.dim != len(want) {
					t.Fatalf("entry %d: dim %d, want %d", i, en.dim, len(want))
				}
				got := decodeVec(nil, s.vecs.words[en.off:en.off+en.n], en.dim)
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("entry %d element %d: decoded %#x, logged %#x", i, j, math.Float64bits(got[j]), math.Float64bits(want[j]))
					}
				}
			}
			if bound := max(initial, 2*(len(s.wal)+2)*maxVecWords(maxDim)); len(s.vecs.words) > bound {
				t.Fatalf("arena grew to %d words, bound %d", len(s.vecs.words), bound)
			}
		}
	})
}

// BenchmarkWALAppend times logging one quiet step's vector into a warm
// arena: 273 features, non-zero in pairs within the first sixty of both
// halves (the shape of wide_quiet's vectors), zero elsewhere.
func BenchmarkWALAppend(b *testing.B) {
	s := &shard{wal: make([]walEntry, 512)}
	x := make([]float64, 273)
	for i := range x {
		if i%180 < 60 && i/2%3 != 2 {
			x[i] = float64(i) / 7
		}
	}
	msg := &message{op: opStep}
	for i := 0; i < 2*len(s.wal); i++ {
		s.walAppend(msg, x, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.walAppend(msg, x, 0)
	}
}
