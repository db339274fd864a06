package nn

import (
	"math"
	"math/rand"
	"testing"
)

// scalarLossDense evaluates a toy scalar loss L = sum(tanh(W·x+b)) used to
// verify Dense gradients against finite differences.
func scalarLossDense(d *Dense, x Vec) float64 {
	y := NewVec(d.Out)
	d.ForwardInto(x, y)
	var L float64
	for _, v := range y {
		L += math.Tanh(v)
	}
	return L
}

func TestDenseGradientMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(4, 3, rng)
	var xs, dys, dxs Batch
	xs.Resize(1, 4)
	x := xs.Row(0)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	// analytic
	y := NewVec(3)
	d.ForwardInto(x, y)
	dys.Resize(1, 3)
	for i, v := range y {
		th := math.Tanh(v)
		dys.Data[i] = 1 - th*th
	}
	d.ZeroGrad()
	d.BackwardBatch(&xs, &dys, &dxs)
	dx := dxs.Row(0)

	const h = 1e-6
	// weight gradients
	for i := range d.W.Data {
		orig := d.W.Data[i]
		d.W.Data[i] = orig + h
		lp := scalarLossDense(d, x)
		d.W.Data[i] = orig - h
		lm := scalarLossDense(d, x)
		d.W.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if !almostEq(num, d.GW.Data[i], 1e-5) {
			t.Fatalf("W grad %d: analytic %v numeric %v", i, d.GW.Data[i], num)
		}
	}
	// bias gradients
	for i := range d.B {
		orig := d.B[i]
		d.B[i] = orig + h
		lp := scalarLossDense(d, x)
		d.B[i] = orig - h
		lm := scalarLossDense(d, x)
		d.B[i] = orig
		num := (lp - lm) / (2 * h)
		if !almostEq(num, d.GB[i], 1e-5) {
			t.Fatalf("b grad %d: analytic %v numeric %v", i, d.GB[i], num)
		}
	}
	// input gradients
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		lp := scalarLossDense(d, x)
		x[i] = orig - h
		lm := scalarLossDense(d, x)
		x[i] = orig
		num := (lp - lm) / (2 * h)
		if !almostEq(num, dx[i], 1e-5) {
			t.Fatalf("x grad %d: analytic %v numeric %v", i, dx[i], num)
		}
	}
}

// TestLSTMGradientMatchesNumeric checks the input gradients BackwardBatchDX
// emits against central differences of L = Σ H² (batchLSTMLoss), at batch
// sizes on both sides of the kernels' four-row tile; the weight gradients
// of the same pass are TestLSTMBackwardBatchMatchesNumeric's.
func TestLSTMGradientMatchesNumeric(t *testing.T) {
	for _, B := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(5 + B)))
		l := NewLSTM(3, 4, rng)
		const T = 6
		var tp BatchTape
		fillTapeInputs(&tp, l, B, T, rng)
		l.ForwardBatch(&tp)
		dH, touched := sumSquaresGrad(&tp, l.Hidden)
		var s BatchGradScratch
		dX := make([]Batch, T)
		l.BackwardBatchDX(&tp, dH, touched, &s, dX)
		l.ZeroGrad()

		const h = 1e-6
		for t2 := 0; t2 < T; t2++ {
			xs := tp.Xs[t2].Data
			for i := range xs {
				orig := xs[i]
				xs[i] = orig + h
				lp := batchLSTMLoss(l, &tp)
				xs[i] = orig - h
				lm := batchLSTMLoss(l, &tp)
				xs[i] = orig
				num := (lp - lm) / (2 * h)
				if got := dX[t2].Data[i]; !almostEq(num, got, 1e-4) {
					t.Fatalf("B=%d x[%d][%d] grad: analytic %v numeric %v", B, t2, i, got, num)
				}
			}
		}
	}
}

func TestLSTMBackwardSparseInjection(t *testing.T) {
	// Gradient injected only at the last step must still reach weights that
	// only influenced earlier steps (through the recurrent path).
	rng := rand.New(rand.NewSource(9))
	l := NewLSTM(2, 3, rng)
	var tp BatchTape
	packSeqs(&tp, l, []Vec{{1, 0}, {0, 1}, {0.5, -0.5}})
	l.ForwardBatch(&tp)
	dH := make([]Batch, 3)
	touched := make([]bool, 3)
	dH[2].Resize(1, 3)
	copy(dH[2].Data, []float64{1, 1, 1})
	touched[2] = true
	l.ZeroGrad()
	var s BatchGradScratch
	dX := make([]Batch, 3)
	l.BackwardBatchDX(&tp, dH, touched, &s, dX)
	if dX[0].Data[0] == 0 && dX[0].Data[1] == 0 {
		t.Fatal("gradient did not flow back to the first input")
	}
	var gw float64
	for _, v := range l.GWh.Data {
		gw += math.Abs(v)
	}
	if gw == 0 {
		t.Fatal("recurrent weights received no gradient")
	}
}

func TestLSTMDeterministic(t *testing.T) {
	l1 := NewLSTM(3, 4, rand.New(rand.NewSource(11)))
	l2 := NewLSTM(3, 4, rand.New(rand.NewSource(11)))
	xs := []Vec{{1, 2, 3}, {4, 5, 6}}
	var tp1, tp2 BatchTape
	packSeqs(&tp1, l1, xs)
	packSeqs(&tp2, l2, xs)
	l1.ForwardBatch(&tp1)
	l2.ForwardBatch(&tp2)
	for t2 := range xs {
		for j, v := range tp1.H[t2].Data {
			if v != tp2.H[t2].Data[j] {
				t.Fatal("same seed must give identical forward pass")
			}
		}
	}
}

func TestLSTMForgetBiasInitialized(t *testing.T) {
	l := NewLSTM(2, 5, rand.New(rand.NewSource(1)))
	for j := 0; j < 5; j++ {
		if l.B[5+j] != 1 {
			t.Fatalf("forget bias %d = %v, want 1", j, l.B[5+j])
		}
		if l.B[j] != 0 || l.B[2*5+j] != 0 || l.B[3*5+j] != 0 {
			t.Fatal("non-forget biases must start at 0")
		}
	}
}

func TestLSTMEmptySequence(t *testing.T) {
	l := NewLSTM(2, 3, rand.New(rand.NewSource(1)))
	var tp BatchTape
	tp.Reset(l, 1, 0)
	l.ForwardBatch(&tp)
	var s BatchGradScratch
	l.BackwardBatchDX(&tp, nil, nil, &s, []Batch{})
	for _, p := range l.Params() {
		for _, g := range p.G.Data {
			if g != 0 {
				t.Fatal("backward over an empty tape must leave gradients zero")
			}
		}
	}
}

func TestLSTMLongSequenceStability(t *testing.T) {
	// A 5000-step forward pass over bounded inputs must stay finite and
	// bounded (tanh/sigmoid gating prevents blow-up) — the property that
	// lets the Stream run indefinitely.
	rng := rand.New(rand.NewSource(41))
	l := NewLSTM(8, 12, rng)
	var h, c Vec
	var sc StepScratch
	x := NewVec(8)
	for i := 0; i < 5000; i++ {
		for j := range x {
			x[j] = rng.NormFloat64() * 2
		}
		h, c = l.Step(h, c, x, &sc)
	}
	for j := range h {
		if math.IsNaN(h[j]) || math.Abs(h[j]) > 1 {
			t.Fatalf("hidden state escaped (-1,1): %v", h[j])
		}
		if math.IsNaN(c[j]) || math.Abs(c[j]) > 100 {
			t.Fatalf("cell state diverged: %v", c[j])
		}
	}
}
