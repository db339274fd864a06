package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func newLane(t testing.TB, m *Model) *BatchRunner32 {
	t.Helper()
	r, err := NewBatchRunner32(m)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func checkpointBytes(t *testing.T, s *Stream) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenLaneDigest is the SHA-256 over every survival output and the final
// XSC1 checkpoints of the seeded run below, recorded at commit 4b81f03 —
// the last one where a float32 stream stepped itself, through a sequential
// kernel path, whenever it stepped alone or took a missing step. Those
// steps run through the lane here, so an equal digest says the serving
// bytes did not move when that second kernel path was deleted.
const goldenLaneDigest = "2a7303f57e90e45693abc58f2ba04d5dab26d97867e44f02c03a1908e3e02a41"

func TestLaneGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; other ports may fuse multiply-adds")
	}
	sum := sha256.New()
	putF := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		sum.Write(b[:])
	}
	wide := tinyConfig()
	wide.NumFeatures, wide.Hidden, wide.Window = 21, 10, 5
	for _, cfg := range []Config{tinyConfig(), wide} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r := newLane(t, m)
		rng := rand.New(rand.NewSource(17))
		all := []*Stream{r.NewStream(), r.NewStream(), r.NewStream(), r.NewStream()}
		for step := 0; step < 50; step++ {
			var members []*Stream
			var xs [][]float64
			for i, s := range all {
				x := randInput(rng, cfg.NumFeatures)
				switch {
				case i == 1 && step%5 == 3:
					putF(s.PushMissing(MissingCarry))
				case i == 2 && step%7 == 2:
					putF(s.PushMissing(MissingZero))
				case i == 3 && step < 9:
					// joins the lane late
				default:
					members = append(members, s)
					xs = append(xs, x)
				}
			}
			for _, v := range r.Push(members, xs, nil) {
				putF(v)
			}
			if step == 20 {
				all[1].Reset()
			}
			if step == 27 { // mid-run, pooling buffers part full
				ck := bytes.NewReader(checkpointBytes(t, all[2]))
				if all[2], err = r.RestoreStream(ck); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, s := range all {
			sum.Write(checkpointBytes(t, s))
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenLaneDigest {
		t.Fatalf("lane digest %s, want %s", got, goldenLaneDigest)
	}
}

// TestLaneBatchSizeInvariant is the property the engine's batching and the
// benchmark's byte-exact state check rest on: what a stream computes does
// not depend on who it was batched with. One seeded schedule — streams
// joining cold mid-run, leaving, missing steps of both policies
// interleaved, a Reset, a checkpoint/restore swap — is replayed with each
// step's real pushes issued in batches of at most 1, 3 and 64. Every
// survival value must be bit-equal and every final checkpoint byte-equal
// across the three. The run crosses every pooling boundary and wraps the
// hazard ring several times.
func TestLaneBatchSizeInvariant(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	const N, steps = 64, 60
	run := func(maxB int) (outs []float64, ckpts [][]byte) {
		r := newLane(t, m)
		rng := rand.New(rand.NewSource(42))
		streams := make([]*Stream, N)
		for i := range streams {
			streams[i] = r.NewStream()
		}
		outs = make([]float64, 0, N*steps)
		for step := 0; step < steps; step++ {
			var members []*Stream
			var xs [][]float64
			var at []int // where in outs each member's value goes
			for i, s := range streams {
				x := randInput(rng, m.Cfg.NumFeatures)
				v := math.NaN() // idle this step
				switch {
				case step < i%7 || step >= steps-i%5:
					// not joined yet, or already left
				case (step+i)%11 == 5:
					v = s.PushMissing(MissingCarry)
				case (step+2*i)%13 == 7:
					v = s.PushMissing(MissingZero)
				default:
					members, xs, at = append(members, s), append(xs, x), append(at, len(outs))
				}
				outs = append(outs, v)
			}
			for lo := 0; lo < len(members); lo += maxB {
				hi := min(lo+maxB, len(members))
				if maxB == 1 {
					outs[at[lo]] = members[lo].Push(xs[lo]) // the lone-stream door
					continue
				}
				for n, v := range r.Push(members[lo:hi], xs[lo:hi], nil) {
					outs[at[lo+n]] = v
				}
			}
			for i, s := range streams {
				if step == 25 && i%9 == 4 {
					s.Reset()
				}
				if step == 33 && i%8 == 1 { // pooling buffers part full, ring mid-epoch
					if streams[i], err = r.RestoreStream(bytes.NewReader(checkpointBytes(t, s))); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, s := range streams {
			ckpts = append(ckpts, checkpointBytes(t, s))
		}
		return outs, ckpts
	}
	wantOuts, wantCkpts := run(1)
	for _, B := range []int{3, 64} {
		outs, ckpts := run(B)
		for k := range wantOuts {
			if math.Float64bits(outs[k]) != math.Float64bits(wantOuts[k]) {
				t.Fatalf("B=%d step %d stream %d: survival %v, alone %v", B, k/N, k%N, outs[k], wantOuts[k])
			}
		}
		for i := range wantCkpts {
			if !bytes.Equal(ckpts[i], wantCkpts[i]) {
				t.Fatalf("B=%d stream %d: checkpoint differs from the stream stepped alone", B, i)
			}
		}
	}
}

// TestLanePushGuards pins what Push refuses: streams it did not create
// (another lane's, or a float64 oracle), an input of the wrong width —
// which would otherwise leave a reused batch row's stale tail in place —
// a stream listed twice (it would be gathered twice and scattered
// last-wins) and mismatched slice lengths. A refused Push must refuse
// whole: every row is validated before any is touched, so the lane's own
// streams in the refused batch — those listed before the bad row included —
// keep their XSC1 bytes, last input and step count among them.
func TestLanePushGuards(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := newLane(t, m)
	rng := rand.New(rand.NewSource(5))
	x := randInput(rng, m.Cfg.NumFeatures)
	a, b := r.NewStream(), r.NewStream()
	for i := 0; i < 7; i++ { // part-full pooling buffers, a real last input
		r.Push([]*Stream{a, b}, [][]float64{randInput(rng, m.Cfg.NumFeatures), randInput(rng, m.Cfg.NumFeatures)}, nil)
	}
	cases := []struct {
		name    string
		streams []*Stream
		xs      [][]float64
	}{
		{"stream of another lane", []*Stream{a, b, newLane(t, m).NewStream()}, [][]float64{x, x, x}},
		{"float64 oracle stream", []*Stream{a, NewStream(m), b}, [][]float64{x, x, x}},
		{"short input", []*Stream{a, b}, [][]float64{x, x[:len(x)-1]}},
		{"long input", []*Stream{a, b}, [][]float64{x, append(append([]float64(nil), x...), 0)}},
		{"stream listed twice", []*Stream{a, b, a}, [][]float64{x, x, x}},
		{"fewer inputs than streams", []*Stream{a, b}, [][]float64{x}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			beforeA, beforeB := checkpointBytes(t, a), checkpointBytes(t, b)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("expected panic")
					}
				}()
				r.Push(c.streams, c.xs, nil)
			}()
			if !bytes.Equal(checkpointBytes(t, a), beforeA) || !bytes.Equal(checkpointBytes(t, b), beforeB) {
				t.Fatal("a refused Push changed a stream it had already accepted")
			}
		})
	}
	// The refusals leave no mark: the same streams still step.
	r.Push([]*Stream{a, b}, [][]float64{x, x}, nil)
	if a.Steps() != 8 || b.Steps() != 8 {
		t.Fatalf("streams at steps %d, %d after 8 accepted pushes", a.Steps(), b.Steps())
	}
}

// TestLaneSharedInputInvariant is the property the shared input projection
// rests on: sharing is an optimisation by slice identity and changes no
// bit. Six channels fed one aliased slice (what a Monitor passes), six fed
// six equal-valued distinct slices, and six pushed alone one by one must
// report bit-equal survival values and end in byte-equal checkpoints —
// through a mid-run Reset of one channel, after which its pooling phase
// differs from its neighbours' and the pooled branches of rows sharing an
// input no longer step together.
func TestLaneSharedInputInvariant(t *testing.T) {
	wide := tinyConfig()
	wide.NumFeatures, wide.Hidden = 21, 10 // five W_x panels: a group of four and a remainder
	for _, cfg := range []Config{tinyConfig(), wide} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		const C, steps = 6, 40
		run := func(mode string) (outs []float64, ckpts [][]byte) {
			r := newLane(t, m)
			rng := rand.New(rand.NewSource(9))
			streams := make([]*Stream, C)
			for i := range streams {
				streams[i] = r.NewStream()
			}
			xs := make([][]float64, C)
			for step := 0; step < steps; step++ {
				x := randInput(rng, cfg.NumFeatures)
				for j := range x {
					if rng.Intn(3) > 0 {
						x[j] = 0 // a sparse input, like a live feature vector
					}
				}
				for i := range xs {
					if mode == "aliased" {
						xs[i] = x
					} else {
						xs[i] = append([]float64(nil), x...)
					}
				}
				if mode == "alone" {
					for i, s := range streams {
						outs = append(outs, s.Push(xs[i]))
					}
				} else {
					outs = append(outs, r.Push(streams, xs, nil)...)
				}
				if step == 13 {
					streams[2].Reset()
				}
			}
			if st := r.Stats(); mode == "aliased" && (st.Rows != C*steps || st.Projections != steps) {
				t.Fatalf("aliased run: %d rows over %d projections, want %d over %d", st.Rows, st.Projections, C*steps, steps)
			} else if mode != "aliased" && st.Projections != st.Rows {
				t.Fatalf("%s run: %d rows over %d projections, want one each", mode, st.Rows, st.Projections)
			}
			for _, s := range streams {
				ckpts = append(ckpts, checkpointBytes(t, s))
			}
			return outs, ckpts
		}
		wantOuts, wantCkpts := run("alone")
		for _, mode := range []string{"aliased", "distinct"} {
			outs, ckpts := run(mode)
			for k := range wantOuts {
				if math.Float64bits(outs[k]) != math.Float64bits(wantOuts[k]) {
					t.Fatalf("hidden %d, %s: step %d channel %d survival %v, alone %v", cfg.Hidden, mode, k/C, k%C, outs[k], wantOuts[k])
				}
			}
			for i := range wantCkpts {
				if !bytes.Equal(ckpts[i], wantCkpts[i]) {
					t.Fatalf("hidden %d, %s: channel %d checkpoint differs from the channel pushed alone", cfg.Hidden, mode, i)
				}
			}
		}
	}
}

// TestStreamPushAllocsZero pins the float64 oracle's step at zero
// allocations: state, pooling buffers, kernel scratch and the head output
// are all stream-owned.
func TestStreamPushAllocsZero(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertPushAllocsZero(t, "float64", NewStream(m))
}

// TestLaneStreamPushAllocsZero pins the batch of one behind a serving
// stream's Push and PushMissing at zero allocations.
func TestLaneStreamPushAllocsZero(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	assertPushAllocsZero(t, "float32", newLane(t, m).NewStream())
}

func assertPushAllocsZero(t *testing.T, name string, s *Stream) {
	t.Helper()
	x := make([]float64, s.Model().Cfg.NumFeatures)
	x[0] = 0.5
	for i := 0; i < 30; i++ { // warm scratch across all pooling boundaries
		s.Push(x)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Push(x) }); allocs != 0 {
		t.Fatalf("%s Stream.Push allocates %v/op, want 0", name, allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.PushMissing(MissingCarry) }); allocs != 0 {
		t.Fatalf("%s Stream.PushMissing allocates %v/op, want 0", name, allocs)
	}
}

// TestBatchRunner32PushAllocsZero pins the lane at zero steady-state
// allocations at batch 8 and 64 (arena'd stream state, lane-owned packing
// buffers).
func TestBatchRunner32PushAllocsZero(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := newLane(t, m)
	for _, B := range []int{8, 64} {
		streams := make([]*Stream, B)
		xs := make([][]float64, B)
		for i := range streams {
			streams[i] = r.NewStream()
			xs[i] = make([]float64, m.Cfg.NumFeatures)
			xs[i][0] = float64(i) * 0.1
		}
		out := make([]float64, B)
		for i := 0; i < 30; i++ {
			r.Push(streams, xs, out)
		}
		if allocs := testing.AllocsPerRun(100, func() { r.Push(streams, xs, out) }); allocs != 0 {
			t.Fatalf("B=%d: BatchRunner32.Push allocates %v/op, want 0", B, allocs)
		}
	}
}
