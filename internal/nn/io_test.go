package nn

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestParamsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	l := NewLSTM(5, 7, rng)
	d := NewDense(7, 1, rng)
	params := append(l.Params(), d.Params()...)

	var buf bytes.Buffer
	if err := WriteParams(&buf, params); err != nil {
		t.Fatal(err)
	}

	l2 := NewLSTM(5, 7, rand.New(rand.NewSource(99)))
	d2 := NewDense(7, 1, rand.New(rand.NewSource(99)))
	params2 := append(l2.Params(), d2.Params()...)
	if err := ReadParams(bytes.NewReader(buf.Bytes()), params2); err != nil {
		t.Fatal(err)
	}
	for i := range params {
		for j := range params[i].W.Data {
			if params[i].W.Data[j] != params2[i].W.Data[j] {
				t.Fatalf("param %q element %d differs after round trip", params[i].Name, j)
			}
		}
	}
	// Loaded values must be visible through the layer structs.
	x := Vec{1, 2, 3, 4, 5}
	h1, _ := l.Step(nil, nil, x, nil)
	h2, _ := l2.Step(nil, nil, x, nil)
	for j := range h1 {
		if h1[j] != h2[j] {
			t.Fatal("loaded LSTM does not reproduce original forward pass")
		}
	}
}

func TestReadParamsRejectsBadMagic(t *testing.T) {
	err := ReadParams(bytes.NewReader([]byte("NOPE....")), nil)
	if err == nil {
		t.Fatal("expected error for bad magic")
	}
}

func TestReadParamsRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, rng)
	var buf bytes.Buffer
	if err := WriteParams(&buf, d.Params()); err != nil {
		t.Fatal(err)
	}
	d2 := NewDense(4, 2, rng) // different input width
	err := ReadParams(bytes.NewReader(buf.Bytes()), d2.Params())
	if err == nil {
		t.Fatal("expected shape-mismatch error")
	}
}

func TestReadParamsRejectsTruncated(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, rng)
	var buf bytes.Buffer
	if err := WriteParams(&buf, d.Params()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{1, 5, len(raw) / 2, len(raw) - 1} {
		if err := ReadParams(bytes.NewReader(raw[:cut]), d.Params()); err == nil {
			t.Fatalf("expected error for truncation at %d bytes", cut)
		}
	}
}

func TestReadParamsRejectsCountMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(3, 2, rng)
	var buf bytes.Buffer
	if err := WriteParams(&buf, d.Params()); err != nil {
		t.Fatal(err)
	}
	l := NewLSTM(3, 2, rng)
	all := append(d.Params(), l.Params()...)
	if err := ReadParams(bytes.NewReader(buf.Bytes()), all); err == nil {
		t.Fatal("expected count-mismatch error")
	}
}

func TestAdamReducesLoss(t *testing.T) {
	// Fit y = 2x1 - 3x2 with a Dense layer; Adam must drive MSE down.
	rng := rand.New(rand.NewSource(13))
	d := NewDense(2, 1, rng)
	opt := NewAdam(0.05, d.Params())
	var xs, ys, dys, dxs Batch
	xs.Resize(16, 2)
	dys.Resize(16, 1)
	for i := 0; i < 16; i++ {
		copy(xs.Row(i), []float64{float64(i%4) - 1.5, float64(i/4) - 1.5})
	}
	target := func(i int) float64 { return 2*xs.Row(i)[0] - 3*xs.Row(i)[1] }
	loss := func() float64 {
		d.ForwardBatch(&xs, &ys)
		var L float64
		for i := 0; i < 16; i++ {
			diff := ys.Data[i] - target(i)
			L += diff * diff
		}
		return L / 16
	}
	before := loss()
	for epoch := 0; epoch < 300; epoch++ {
		d.ZeroGrad()
		d.ForwardBatch(&xs, &ys)
		for i := 0; i < 16; i++ {
			dys.Data[i] = 2 * (ys.Data[i] - target(i))
		}
		d.BackwardBatch(&xs, &dys, &dxs)
		opt.Step(1.0 / 16)
	}
	after := loss()
	if after > before/100 {
		t.Fatalf("Adam failed to fit: before %v after %v", before, after)
	}
	if opt.StepCount() != 300 {
		t.Fatalf("StepCount = %d", opt.StepCount())
	}
}

func TestAdamClipBoundsUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	d := NewDense(2, 1, rng)
	opt := NewAdam(0.1, d.Params())
	opt.Clip = 1
	// Inject an enormous gradient; clipping must keep the update finite and
	// bounded by roughly lr (Adam normalizes per-element, so each step ≤ lr
	// per weight regardless, but the clip also protects moment estimates).
	d.GW.Data[0] = 1e12
	before := d.W.Data[0]
	opt.Step(1)
	delta := d.W.Data[0] - before
	if delta > 0 || delta < -0.2 {
		t.Fatalf("clipped update out of range: %v", delta)
	}
}
