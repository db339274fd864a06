package nn

import (
	"math"
	"math/rand"
	"testing"
)

// packSeqs packs equal-length sequences into the tape: row i of step t is
// seqs[i][t].
func packSeqs(tp *BatchTape, l *LSTM, seqs ...[]Vec) {
	tp.Reset(l, len(seqs), len(seqs[0]))
	for i, seq := range seqs {
		for t, x := range seq {
			copy(tp.Xs[t].Row(i), x)
		}
	}
}

// fillTapeInputs packs B random sequences of length T into the tape.
func fillTapeInputs(tp *BatchTape, l *LSTM, B, T int, rng *rand.Rand) {
	tp.Reset(l, B, T)
	for t := 0; t < T; t++ {
		for i := range tp.Xs[t].Data {
			tp.Xs[t].Data[i] = rng.NormFloat64()
		}
	}
}

// stepMatchesTape steps every row of a forwarded tape through LSTM.Step
// from zero state — the float64 streaming oracle — and fails unless the
// hidden states, cell states and gate values are bit-identical.
func stepMatchesTape(t *testing.T, l *LSTM, tp *BatchTape) {
	t.Helper()
	var sc StepScratch
	for i := 0; i < tp.B; i++ {
		var h, c Vec
		for t2 := 0; t2 < tp.T; t2++ {
			h, c = l.Step(h, c, tp.Xs[t2].Row(i), &sc)
			for j := range h {
				if h[j] != tp.H[t2].Row(i)[j] {
					t.Fatalf("B=%d H[%d] row %d elem %d: batched %v step %v",
						tp.B, t2, i, j, tp.H[t2].Row(i)[j], h[j])
				}
				if c[j] != tp.C[t2].Row(i)[j] {
					t.Fatalf("B=%d C[%d] row %d differs from Step", tp.B, t2, i)
				}
			}
			for j, g := range sc.gates {
				if g != tp.Gates[t2].Row(i)[j] {
					t.Fatalf("B=%d Gates[%d] row %d differ from Step", tp.B, t2, i)
				}
			}
		}
	}
}

func TestForwardBatchBitIdenticalToScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	l := NewLSTM(3, 5, rng)
	for _, B := range []int{1, 3} {
		var tp BatchTape
		fillTapeInputs(&tp, l, B, 7, rng)
		l.ForwardBatch(&tp)
		stepMatchesTape(t, l, &tp)
	}
}

// sumSquaresGrad returns dL/dH for L = Σ H² over every step of a forwarded
// tape (batchLSTMLoss), injected at every step.
func sumSquaresGrad(tp *BatchTape, hidden int) ([]Batch, []bool) {
	dH := make([]Batch, tp.T)
	touched := make([]bool, tp.T)
	for t := range dH {
		dH[t].Resize(tp.B, hidden)
		for i := range dH[t].Data {
			dH[t].Data[i] = 2 * tp.H[t].Data[i]
		}
		touched[t] = true
	}
	return dH, touched
}

// batchLSTMLoss runs ForwardBatch and evaluates L = Σ_{i,t,j} H[t][i][j]².
func batchLSTMLoss(l *LSTM, tp *BatchTape) float64 {
	l.ForwardBatch(tp)
	var L float64
	for t := 0; t < tp.T; t++ {
		for _, v := range tp.H[t].Data {
			L += v * v
		}
	}
	return L
}

func TestLSTMBackwardBatchMatchesNumeric(t *testing.T) {
	for _, B := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(31 + B)))
		l := NewLSTM(3, 4, rng)
		const T = 5
		var tp BatchTape
		fillTapeInputs(&tp, l, B, T, rng)
		l.ForwardBatch(&tp)

		dH, touched := sumSquaresGrad(&tp, l.Hidden)
		l.ZeroGrad()
		var s BatchGradScratch
		l.BackwardBatch(&tp, dH, touched, &s)

		const h = 1e-6
		check := func(name string, w, g *Mat) {
			t.Helper()
			for i := 0; i < len(w.Data); i += 5 {
				orig := w.Data[i]
				w.Data[i] = orig + h
				lp := batchLSTMLoss(l, &tp)
				w.Data[i] = orig - h
				lm := batchLSTMLoss(l, &tp)
				w.Data[i] = orig
				num := (lp - lm) / (2 * h)
				if !almostEq(num, g.Data[i], 1e-3*float64(B)) {
					t.Fatalf("B=%d %s grad %d: analytic %v numeric %v", B, name, i, g.Data[i], num)
				}
			}
		}
		check("Wx", l.Wx, l.GWx)
		check("Wh", l.Wh, l.GWh)
		check("B", vecAsMat(l.B), vecAsMat(l.GB))
	}
}

// denseBatchLoss evaluates L = Σ_i Σ_o tanh(y[i][o]) over a batched Dense
// forward, matching scalarLossDense per row.
func denseBatchLoss(d *Dense, xs *Batch) float64 {
	var out Batch
	d.ForwardBatch(xs, &out)
	var L float64
	for _, v := range out.Data {
		L += math.Tanh(v)
	}
	return L
}

func TestDenseBackwardBatchMatchesNumeric(t *testing.T) {
	for _, B := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(37 + B)))
		d := NewDense(4, 3, rng)
		var xs Batch
		xs.Resize(B, 4)
		for i := range xs.Data {
			xs.Data[i] = rng.NormFloat64()
		}
		var out Batch
		d.ForwardBatch(&xs, &out)
		var dys Batch
		dys.Resize(B, 3)
		for i, v := range out.Data {
			th := math.Tanh(v)
			dys.Data[i] = 1 - th*th
		}
		d.ZeroGrad()
		var dxs Batch
		d.BackwardBatch(&xs, &dys, &dxs)

		const h = 1e-6
		for i := range d.W.Data {
			orig := d.W.Data[i]
			d.W.Data[i] = orig + h
			lp := denseBatchLoss(d, &xs)
			d.W.Data[i] = orig - h
			lm := denseBatchLoss(d, &xs)
			d.W.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if !almostEq(num, d.GW.Data[i], 1e-4) {
				t.Fatalf("B=%d W grad %d: analytic %v numeric %v", B, i, d.GW.Data[i], num)
			}
		}
		for i := range d.B {
			orig := d.B[i]
			d.B[i] = orig + h
			lp := denseBatchLoss(d, &xs)
			d.B[i] = orig - h
			lm := denseBatchLoss(d, &xs)
			d.B[i] = orig
			num := (lp - lm) / (2 * h)
			if !almostEq(num, d.GB[i], 1e-4) {
				t.Fatalf("B=%d b grad %d: analytic %v numeric %v", B, i, d.GB[i], num)
			}
		}
		// Input gradients via the numeric route as well.
		for i := range xs.Data {
			orig := xs.Data[i]
			xs.Data[i] = orig + h
			lp := denseBatchLoss(d, &xs)
			xs.Data[i] = orig - h
			lm := denseBatchLoss(d, &xs)
			xs.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if !almostEq(num, dxs.Data[i], 1e-4) {
				t.Fatalf("B=%d x grad %d: analytic %v numeric %v", B, i, dxs.Data[i], num)
			}
		}
	}
}

func TestDenseBackwardBatchSkipsZeroRows(t *testing.T) {
	// Rows with an all-zero output gradient must contribute nothing and
	// leave their dx row zero: the batch must equal the batch without them,
	// bit for bit.
	rng := rand.New(rand.NewSource(43))
	d := NewDense(3, 2, rng)
	var xs, dys, dxs Batch
	xs.Resize(2, 3)
	for i := range xs.Data {
		xs.Data[i] = rng.NormFloat64()
	}
	dys.Resize(2, 2)
	dys.Row(1)[0] = 1.5 // only row 1 carries gradient
	d.ZeroGrad()
	d.BackwardBatch(&xs, &dys, &dxs)

	gw, gb := d.GW.Clone(), d.GB.Clone()
	d.ZeroGrad()
	var x1, dy1, dxRef Batch
	x1.Resize(1, 3)
	copy(x1.Data, xs.Row(1))
	dy1.Resize(1, 2)
	copy(dy1.Data, dys.Row(1))
	d.BackwardBatch(&x1, &dy1, &dxRef)
	for i, v := range d.GW.Data {
		if gw.Data[i] != v {
			t.Fatalf("GW[%d] differs from the batch without the zero row", i)
		}
	}
	for i, v := range d.GB {
		if gb[i] != v {
			t.Fatalf("GB[%d] differs from the batch without the zero row", i)
		}
	}
	for j, v := range dxRef.Row(0) {
		if dxs.Row(1)[j] != v {
			t.Fatalf("dx row 1 elem %d differs from the batch without the zero row", j)
		}
	}
	for _, v := range dxs.Row(0) {
		if v != 0 {
			t.Fatal("zero-gradient row must leave dx row zero")
		}
	}
}

// fillTapeSparseInputs packs B sequences whose rows carry nnz non-zeros out
// of l.In features (plus an explicit -0.0 to exercise the signed-zero skip).
func fillTapeSparseInputs(tp *BatchTape, l *LSTM, B, T, nnz int, rng *rand.Rand) {
	tp.Reset(l, B, T)
	for t := 0; t < T; t++ {
		for i := 0; i < B; i++ {
			row := tp.Xs[t].Row(i)
			for j := range row {
				row[j] = 0
			}
			row[(t+i)%l.In] = math.Copysign(0, -1) // -0.0 must be skipped like +0
			for k := 0; k < nnz; k++ {
				row[(k*7+t+3*i)%l.In] = rng.NormFloat64()
			}
		}
	}
}

func TestSparseForwardBackwardBitIdenticalToDense(t *testing.T) {
	// With sparse inputs BuildSparse flips the tape to the CSR kernels; the
	// activations and accumulated gradients must be byte-identical to the
	// dense kernels on the same data — the proof that skipping exact-zero
	// terms is a pure performance change.
	rng := rand.New(rand.NewSource(53))
	l := NewLSTM(24, 6, rng)
	const B, T = 4, 8
	var dense, sparse BatchTape
	fillTapeSparseInputs(&dense, l, B, T, 3, rand.New(rand.NewSource(59)))
	fillTapeSparseInputs(&sparse, l, B, T, 3, rand.New(rand.NewSource(59)))
	sparse.BuildSparse()
	if !sparse.Sparse() {
		t.Fatal("3/24 non-zeros per row should enable the sparse path")
	}

	l.ForwardBatch(&dense)
	l.ForwardBatch(&sparse)
	for t2 := 0; t2 < T; t2++ {
		for i, v := range dense.H[t2].Data {
			if sparse.H[t2].Data[i] != v {
				t.Fatalf("H[%d][%d]: sparse %v dense %v", t2, i, sparse.H[t2].Data[i], v)
			}
		}
		for i, v := range dense.Gates[t2].Data {
			if sparse.Gates[t2].Data[i] != v {
				t.Fatalf("Gates[%d][%d] differ between sparse and dense", t2, i)
			}
		}
	}

	dH := make([]Batch, T)
	touched := make([]bool, T)
	for _, step := range []int{1, 4, T - 1} {
		dH[step].Resize(B, l.Hidden)
		for i := range dH[step].Data {
			dH[step].Data[i] = rng.NormFloat64()
		}
		touched[step] = true
	}
	// The dense pass without dL/dx is the reference; asking for dL/dx adds
	// one matmul per step and must not move a byte of the weight gradients
	// on either projection, and the two projections' dL/dx must agree.
	var s BatchGradScratch
	l.ZeroGrad()
	l.BackwardBatch(&dense, dH, touched, &s)
	want := [][]float64{l.GWx.Clone().Data, l.GWh.Clone().Data, l.GB.Clone()}
	dXs := [2][]Batch{make([]Batch, T), make([]Batch, T)}
	for run, tp := range []*BatchTape{&sparse, &dense, &sparse} {
		l.ZeroGrad()
		var dX []Batch
		if run > 0 {
			dX = dXs[run-1]
		}
		l.BackwardBatchDX(tp, dH, touched, &s, dX)
		for p, got := range [][]float64{l.GWx.Data, l.GWh.Data, l.GB} {
			for i, v := range got {
				if v != want[p][i] {
					t.Fatalf("run %d param %d elem %d: %v, dense reference %v", run, p, i, v, want[p][i])
				}
			}
		}
	}
	for t2 := 0; t2 < T; t2++ {
		for i, v := range dXs[0][t2].Data {
			if dXs[1][t2].Data[i] != v {
				t.Fatalf("dX[%d][%d]: sparse %v dense %v", t2, i, dXs[1][t2].Data[i], v)
			}
		}
	}
}

func TestBuildSparseKeepsDenseOnDenseData(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	l := NewLSTM(5, 4, rng)
	var tp BatchTape
	fillTapeInputs(&tp, l, 2, 3, rng) // fully dense Gaussian rows
	tp.BuildSparse()
	if tp.Sparse() {
		t.Fatal("dense rows must stay on the dense kernels")
	}
	// And Reset must clear the flag set by a previous sparse build.
	fillTapeSparseInputs(&tp, l, 2, 3, 1, rng)
	tp.BuildSparse()
	if !tp.Sparse() {
		t.Fatal("1/5 non-zeros should enable the sparse path")
	}
	tp.Reset(l, 2, 3)
	if tp.Sparse() {
		t.Fatal("Reset must clear the sparse flag")
	}
}

func TestBackwardBatchSteadyStateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	l := NewLSTM(6, 8, rng)
	const B, T = 4, 10
	var tp BatchTape
	fillTapeInputs(&tp, l, B, T, rng)
	dH := make([]Batch, T)
	touched := make([]bool, T)
	for t2 := 0; t2 < T; t2++ {
		dH[t2].Resize(B, l.Hidden)
		touched[t2] = true
	}
	var s BatchGradScratch
	step := func() {
		l.ForwardBatch(&tp)
		for t2 := 0; t2 < T; t2++ {
			for i := range dH[t2].Data {
				dH[t2].Data[i] = 2 * tp.H[t2].Data[i]
			}
		}
		l.BackwardBatch(&tp, dH, touched, &s)
		l.ZeroGrad()
	}
	step() // warm the grow-only buffers
	if n := testing.AllocsPerRun(10, step); n != 0 {
		t.Fatalf("steady-state batched train step allocated %v times, want 0", n)
	}
}
