package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestStream32CheckpointRoundTrip checkpoints a float32 stream mid-run —
// partial pooling buffers, ring mid-epoch — restores it at float32, and
// requires bit-identical continuation: float32 state widens exactly into
// the XSC1 format and narrows exactly back.
func TestStream32CheckpointRoundTrip(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(301))
	lane := newLane(t, m)
	orig := lane.NewStream()
	for i := 0; i < 13; i++ {
		orig.Push(randInput(rng, m.Cfg.NumFeatures))
	}
	var ck bytes.Buffer
	if err := orig.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	restored, err := lane.RestoreStream(bytes.NewReader(ck.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		x := randInput(rng, m.Cfg.NumFeatures)
		a, b := orig.Push(x), restored.Push(x)
		if a != b {
			t.Fatalf("step %d: original %v != restored %v", i, a, b)
		}
	}
	var a, b bytes.Buffer
	if err := orig.Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := restored.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("post-continuation checkpoints differ")
	}
}

// TestRestoreFloat64CheckpointIntoFloat32 crosses precisions: a float64
// stream's checkpoint restores into a float32 lane (narrowed state) and
// keeps serving, with survival outputs tracking the float64 original
// within quantization tolerance — the migration path when a fleet flips a
// lane's precision without a cold restart.
func TestRestoreFloat64CheckpointIntoFloat32(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(302))
	s64 := NewStream(m)
	for i := 0; i < 17; i++ {
		s64.Push(randInput(rng, m.Cfg.NumFeatures))
	}
	var ck bytes.Buffer
	if err := s64.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	s32, err := newLane(t, m).RestoreStream(bytes.NewReader(ck.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if s32.Steps() != s64.Steps() {
		t.Fatalf("restored steps %d, want %d", s32.Steps(), s64.Steps())
	}
	for i := 0; i < 30; i++ {
		x := randInput(rng, m.Cfg.NumFeatures)
		a, b := s64.Push(x), s32.Push(x)
		// Compare in log-survival space: |Δ log S| bounds the hazard-sum
		// perturbation independent of how close S is to 0 or 1.
		if d := math.Abs(math.Log(a) - math.Log(b)); d > 1e-3 {
			t.Fatalf("step %d: f64 survival %v vs f32 %v (|Δlog|=%v)", i, a, b, d)
		}
	}
}

// TestStream32TracksFloat64 runs the two precisions side by side from
// cold: log-survival must agree within quantization-level tolerance over
// a long window (no compounding drift from the fast float32
// nonlinearities).
func TestStream32TracksFloat64(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(303))
	s64 := NewStream(m)
	s32 := newLane(t, m).NewStream()
	for i := 0; i < 400; i++ {
		x := randInput(rng, m.Cfg.NumFeatures)
		a, b := s64.Push(x), s32.Push(x)
		if d := math.Abs(math.Log(a) - math.Log(b)); d > 1e-3 {
			t.Fatalf("step %d: f64 survival %v vs f32 %v (|Δlog|=%v)", i, a, b, d)
		}
	}
}

// TestStream32Reset: Reset returns a serving stream that has stepped, real
// and missing, to the cold state — byte-equal to a fresh one's checkpoint.
func TestStream32Reset(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(304))
	lane := newLane(t, m)
	s := lane.NewStream()
	for i := 0; i < 25; i++ {
		if i%5 == 4 {
			s.PushMissing(MissingCarry)
			continue
		}
		s.Push(randInput(rng, m.Cfg.NumFeatures))
	}
	s.Reset()
	if !bytes.Equal(checkpointBytes(t, s), checkpointBytes(t, lane.NewStream())) {
		t.Fatal("reset float32 stream differs from a fresh one")
	}
}

// TestQuantizedModelIODeterministic: saving a model and loading it twice
// must yield byte-identical quantized panels — quantization is a pure
// function of the weight bytes, so every replica serving the same model
// file runs the same float32 network.
func TestQuantizedModelIODeterministic(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	load := func() *Quantized32 {
		lm, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		q, err := lm.Quantized32()
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	qa, qb := load(), load()
	for b := range qa.lstms {
		la, lb := qa.lstms[b], qb.lstms[b]
		if (la == nil) != (lb == nil) {
			t.Fatalf("branch %d presence differs", b)
		}
		if la == nil {
			continue
		}
		for i := range la.Wx.Data {
			if math.Float32bits(la.Wx.Data[i]) != math.Float32bits(lb.Wx.Data[i]) {
				t.Fatalf("branch %d Wx panel byte %d differs across loads", b, i)
			}
		}
		for i := range la.Wh.Data {
			if math.Float32bits(la.Wh.Data[i]) != math.Float32bits(lb.Wh.Data[i]) {
				t.Fatalf("branch %d Wh panel byte %d differs across loads", b, i)
			}
		}
		for i := range la.B {
			if math.Float32bits(la.B[i]) != math.Float32bits(lb.B[i]) {
				t.Fatalf("branch %d bias %d differs across loads", b, i)
			}
		}
	}
	for i := range qa.head.W.Data {
		if math.Float32bits(qa.head.W.Data[i]) != math.Float32bits(qb.head.W.Data[i]) {
			t.Fatalf("head panel byte %d differs across loads", i)
		}
	}
}

// TestLoadRejectsCorruptWeights: a model file carrying a NaN weight (bit
// corruption, diverged training) must fail at Load, before any stream
// serves from it.
func TestLoadRejectsCorruptWeights(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.head.W.Data[0] = math.NaN()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("Load accepted a model file with a NaN weight")
	}
	// The quantization layer is the second line of defense for models
	// corrupted in memory rather than on disk.
	if _, err := m.Quantized32(); err == nil {
		t.Fatal("Quantized32 accepted a NaN weight")
	}
}

// TestQuantizedCacheInvalidatedByFit: training updates weights, so the
// cached float32 form must be rebuilt afterwards.
func TestQuantizedCacheInvalidatedByFit(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	q1, err := m.Quantized32()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(305))
	exs := []Example{synthExample(rng, 24, true, m.Cfg.Window), synthExample(rng, 24, false, m.Cfg.Window)}
	if _, err := m.Fit(exs, TrainOptions{Epochs: 1, BatchSize: 2, Workers: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	q2, err := m.Quantized32()
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q2 {
		t.Fatal("Quantized32 cache not invalidated by Fit")
	}
}
