package nn

import (
	"math/rand"
	"testing"
)

func randBatch(rng *rand.Rand, rows, cols int) *Batch {
	b := &Batch{}
	b.Resize(rows, cols)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	return b
}

// TestMulTMatchesMulVecBitwise is the kernel-level bit-exactness contract:
// the blocked batched matmul must produce, for every row, exactly the
// float64 sequence MulVec produces — including rows handled by the tiled
// main loop and the scalar tail (batch sizes straddling the tile width).
func TestMulTMatchesMulVecBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 64} {
		w := NewMat(12, 9)
		w.XavierInit(rng)
		x := randBatch(rng, rows, 9)
		var dst Batch
		x.MulT(w, &dst)
		want := NewVec(12)
		for i := 0; i < rows; i++ {
			w.MulVec(x.Row(i), want)
			got := dst.Row(i)
			for r := range want {
				if got[r] != want[r] {
					t.Fatalf("rows=%d: MulT row %d col %d = %v, MulVec = %v", rows, i, r, got[r], want[r])
				}
			}
		}
	}
}

// TestDenseForwardBatchMatchesForwardBitwise pins the batched head against
// the single-stream ForwardInto the online detector uses.
func TestDenseForwardBatchMatchesForwardBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	d := NewDense(6, 3, rng)
	want := NewVec(3)
	for _, B := range []int{1, 4, 5} {
		xs := randBatch(rng, B, 6)
		var out Batch
		d.ForwardBatch(xs, &out)
		for i := 0; i < B; i++ {
			d.ForwardInto(xs.Row(i), want)
			for r := range want {
				if out.Row(i)[r] != want[r] {
					t.Fatalf("B=%d row %d out %d: %v != %v", B, i, r, out.Row(i)[r], want[r])
				}
			}
		}
	}
}

// TestStepWithScratchAllocsZero pins the single-stream hot path at zero
// allocations per step once state and scratch are caller-owned.
func TestStepWithScratchAllocsZero(t *testing.T) {
	l := NewLSTM(8, 12, rand.New(rand.NewSource(14)))
	h, c := NewVec(12), NewVec(12)
	x := NewVec(8)
	var sc StepScratch
	l.Step(h, c, x, &sc) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		l.Step(h, c, x, &sc)
	})
	if allocs != 0 {
		t.Fatalf("LSTM.Step with scratch allocates %v/op, want 0", allocs)
	}
}

func TestBatchResizeReusesStorage(t *testing.T) {
	var b Batch
	b.Resize(8, 4)
	p := &b.Data[0]
	b.Resize(2, 4)
	if &b.Data[0] != p {
		t.Fatal("shrinking Resize must reuse backing storage")
	}
	if b.Rows != 2 || b.Cols != 4 || len(b.Data) != 8 {
		t.Fatalf("Resize dims wrong: %d×%d len %d", b.Rows, b.Cols, len(b.Data))
	}
}
