package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"testing"
)

func randInput(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// TestStreamCheckpointRoundTrip checkpoints mid-stream — deliberately at a
// step where the pooled branches hold partial aggregation buffers — and
// verifies the restored stream continues bitwise-identically.
func TestStreamCheckpointRoundTrip(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	orig := NewStream(m)
	// 13 steps: PoolMed=4 and PoolLong=12 leave bufN = 1 in both pooled
	// branches, so the checkpoint must carry partial pooling state.
	inputs := make([][]float64, 0, 64)
	for i := 0; i < 13; i++ {
		x := randInput(rng, m.Cfg.NumFeatures)
		inputs = append(inputs, x)
		orig.Push(x)
	}

	var buf bytes.Buffer
	if err := orig.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStream(bytes.NewReader(buf.Bytes()), m)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Steps() != orig.Steps() {
		t.Fatalf("restored Steps=%d, want %d", restored.Steps(), orig.Steps())
	}
	if restored.Warm() != orig.Warm() {
		t.Fatalf("restored Warm=%v, want %v", restored.Warm(), orig.Warm())
	}

	// Continue both for another 40 steps (crossing several pooling
	// boundaries and wrapping the hazard ring): every survival output must
	// be bit-identical, not merely close.
	for i := 0; i < 40; i++ {
		x := randInput(rng, m.Cfg.NumFeatures)
		a, b := orig.Push(x), restored.Push(x)
		if a != b {
			t.Fatalf("step %d: survival diverged: %v vs %v", i, a, b)
		}
	}
	// And the final states must serialize identically.
	var ba, bb bytes.Buffer
	if err := orig.Checkpoint(&ba); err != nil {
		t.Fatal(err)
	}
	if err := restored.Checkpoint(&bb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba.Bytes(), bb.Bytes()) {
		t.Fatal("post-continuation checkpoints differ")
	}
}

// TestStreamCheckpointFreshStream round-trips a stream that has consumed
// nothing (all vectors nil, nothing warm).
func TestStreamCheckpointFreshStream(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := NewStream(m).Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreStream(bytes.NewReader(buf.Bytes()), m)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Steps() != 0 || restored.Warm() {
		t.Fatalf("fresh restore: Steps=%d Warm=%v", restored.Steps(), restored.Warm())
	}
}

// TestRestoreStreamRejectsCorruption covers the failure paths: bad magic,
// bad version, architecture mismatch, truncation at every prefix length,
// and implausible state values.
func TestRestoreStreamRejectsCorruption(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(m)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 13; i++ {
		s.Push(randInput(rng, m.Cfg.NumFeatures))
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[0] = 'Y'
		if _, err := RestoreStream(bytes.NewReader(bad), m); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte{}, good...)
		bad[4] = 99
		if _, err := RestoreStream(bytes.NewReader(bad), m); err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("architecture mismatch", func(t *testing.T) {
		cfg := tinyConfig()
		cfg.Hidden = 8 // checkpoint carries Hidden=6
		other, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreStream(bytes.NewReader(good), other); err == nil {
			t.Fatal("expected config-digest rejection")
		}
	})
	t.Run("branch mask mismatch", func(t *testing.T) {
		cfg := tinyConfig()
		cfg.UseLong = false
		other, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Same scalar config digest fields but a different branch set.
		cfg2 := tinyConfig()
		s2 := func() *Stream {
			mm, err := New(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			return NewStream(mm)
		}()
		var b2 bytes.Buffer
		if err := s2.Checkpoint(&b2); err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreStream(bytes.NewReader(b2.Bytes()), other); err == nil {
			t.Fatal("expected branch-mask rejection")
		}
	})
	t.Run("truncation", func(t *testing.T) {
		for cut := 1; cut < len(good); cut += 7 {
			if _, err := RestoreStream(bytes.NewReader(good[:cut]), m); err == nil {
				t.Fatalf("prefix of %d bytes restored without error", cut)
			}
		}
	})
	t.Run("corrupt trailer", func(t *testing.T) {
		// hazPos/hazCount/steps live right before lastX at the tail; smash
		// them with a huge value and require rejection.
		lastXLen := 1 + 4 + 8*m.Cfg.NumFeatures
		bad := append([]byte{}, good...)
		for i := len(bad) - lastXLen - 12; i < len(bad)-lastXLen; i++ {
			bad[i] = 0xFF
		}
		if _, err := RestoreStream(bytes.NewReader(bad), m); err == nil {
			t.Fatal("expected corrupt-state rejection")
		}
	})
}

// TestPushMissingPolicies pins the two gap policies against their explicit
// equivalents: MissingZero behaves exactly like pushing a zero vector, and
// MissingCarry exactly like re-pushing the last real input — except that
// lastX itself only tracks real inputs. It holds for the float64 oracle
// stepping itself and for a serving stream stepped by its lane.
func TestPushMissingPolicies(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Run("oracle", func(t *testing.T) {
		testPushMissingPolicies(t, m, func() *Stream { return NewStream(m) })
	})
	t.Run("lane", func(t *testing.T) {
		testPushMissingPolicies(t, m, newLane(t, m).NewStream)
	})
}

func testPushMissingPolicies(t *testing.T, m *Model, fresh func() *Stream) {
	warm := func() (*Stream, []float64) {
		s := fresh()
		var x []float64
		r2 := rand.New(rand.NewSource(11))
		// 24 steps: enough for the PoolLong=12 branch to fire and the
		// Window=8 hazard ring to fill, i.e. the stream is fully warm.
		for i := 0; i < 24; i++ {
			x = randInput(r2, m.Cfg.NumFeatures)
			s.Push(x)
		}
		return s, x
	}

	t.Run("zero", func(t *testing.T) {
		a, _ := warm()
		b, _ := warm()
		got := a.PushMissing(MissingZero)
		want := b.Push(make([]float64, m.Cfg.NumFeatures))
		if got != want {
			t.Fatalf("MissingZero=%v, explicit zero push=%v", got, want)
		}
	})
	t.Run("carry", func(t *testing.T) {
		a, last := warm()
		b, _ := warm()
		got := a.PushMissing(MissingCarry)
		want := b.Push(last)
		if got != want {
			t.Fatalf("MissingCarry=%v, explicit re-push=%v", got, want)
		}
		// A second missing step must carry the same real input again, not
		// the synthesized one.
		got2 := a.PushMissing(MissingCarry)
		want2 := b.Push(last)
		if got2 != want2 {
			t.Fatalf("second MissingCarry=%v, want %v", got2, want2)
		}
		// Nor the zeros an intervening MissingZero step fed.
		a.PushMissing(MissingZero)
		b.PushMissing(MissingZero)
		if got3, want3 := a.PushMissing(MissingCarry), b.Push(last); got3 != want3 {
			t.Fatalf("MissingCarry after MissingZero=%v, want %v", got3, want3)
		}
	})
	t.Run("carry on cold stream zero-fills", func(t *testing.T) {
		a := fresh()
		b := fresh()
		got := a.PushMissing(MissingCarry)
		want := b.Push(make([]float64, m.Cfg.NumFeatures))
		if got != want {
			t.Fatalf("cold MissingCarry=%v, want zero-fill %v", got, want)
		}
	})
	t.Run("keeps stream warm and in lockstep", func(t *testing.T) {
		a, _ := warm()
		if !a.Warm() {
			t.Fatal("stream should be warm after 10 steps")
		}
		steps := a.Steps()
		for i := 0; i < 5; i++ {
			a.PushMissing(MissingZero)
		}
		if !a.Warm() {
			t.Fatal("gap steps must not cool the stream")
		}
		if a.Steps() != steps+5 {
			t.Fatalf("Steps=%d, want %d", a.Steps(), steps+5)
		}
	})
}

// TestStreamStepsSaturate: the XSC1 step count is an int32, so a stream
// restored at the largest count must still checkpoint into a file that
// restores after another push — the count stays there instead of wrapping
// negative, which restore would refuse as corrupt.
func TestStreamStepsSaturate(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := newLane(t, m)
	for name, restore := range map[string]func([]byte) (*Stream, error){
		"float64": func(b []byte) (*Stream, error) { return RestoreStream(bytes.NewReader(b), m) },
		"float32": func(b []byte) (*Stream, error) { return r.RestoreStream(bytes.NewReader(b)) },
	} {
		ck := checkpointBytes(t, NewStream(m))
		at := len(ck) - (1 + 4 + 8*m.Cfg.NumFeatures) - 4
		binary.LittleEndian.PutUint32(ck[at:], math.MaxInt32)
		s, err := restore(ck)
		if err != nil {
			t.Fatal(err)
		}
		s.Push(make([]float64, m.Cfg.NumFeatures))
		s.PushMissing(MissingZero)
		if s, err = restore(checkpointBytes(t, s)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Steps() != math.MaxInt32 {
			t.Fatalf("%s: %d steps, want %d", name, s.Steps(), math.MaxInt32)
		}
	}
}

// TestCheckpointAllocs pins Stream.Checkpoint at one allocation — the
// buffer it encodes into — whatever the model's size, on both kinds of
// stream.
func TestCheckpointAllocs(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.5, -1, 0, 2}
	for name, s := range map[string]*Stream{"oracle": NewStream(m), "serving": newLane(t, m).NewStream()} {
		for i := 0; i < 13; i++ { // pools part full, ring wrapped
			s.Push(x)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.Checkpoint(io.Discard) }); allocs > 1 {
			t.Errorf("%s Stream.Checkpoint allocates %v/op, want ≤ 1", name, allocs)
		}
	}
}
