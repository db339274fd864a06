package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The tests here pin the serving kernels that replaced dense or scalar
// code — the non-zero-column input projection and the vector gates — to
// the kernels they replaced, which stay in the tree as references.

// sameFloat32 is bit equality, except that any NaN equals any NaN: which
// payload survives an operation on two NaNs is the instruction's operand
// order, not arithmetic.
func sameFloat32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// sparseInput32 draws a vector whose elements are non-zero with the given
// probability and ±0 otherwise. With specials, a few positions take the
// values a zero-skipping kernel could mishandle: denormals (non-zero, must
// not be skipped), NaN and ±Inf (must reach every output).
func sparseInput32(rng *rand.Rand, n int, density float64, specials bool) Vec32 {
	x := NewVec32(n)
	negZero := float32(math.Copysign(0, -1))
	for i := range x {
		switch {
		case rng.Float64() < density:
			x[i] = float32(rng.NormFloat64())
		case rng.Intn(2) == 0:
			x[i] = negZero
		}
	}
	if specials {
		for _, v := range []float32{
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 1e-39,
			float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		} {
			if rng.Intn(2) == 0 {
				x[rng.Intn(n)] = v
			}
		}
	}
	return x
}

// TestMulVecNZ32MatchesDenseBitwise: the non-zero-column projection must
// produce the bits of the dense kernels it replaced in the serving step,
// both the one-row MulVec32 and the batched MulT32, at the densities that
// matter (all zeros, a live feature vector's 0.18, fully dense) and on
// both panel-count shapes: Hidden 64 (32 panels, all in groups of four)
// and Hidden 10 (5 panels: one group and a remainder).
func TestMulVecNZ32MatchesDenseBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const cols = 273
	for _, hidden := range []int{10, 64} {
		w64 := NewMat(4*hidden, cols)
		w64.XavierInit(rng)
		w, err := PackPanels32(w64)
		if err != nil {
			t.Fatal(err)
		}
		for _, density := range []float64{0, 0.18, 1} {
			for trial := 0; trial < 20; trial++ {
				var xs Batch32
				xs.Resize(5, cols) // the 4-row block and the one-row tail of MulT32
				for i := 0; i < xs.Rows; i++ {
					copy(xs.Row(i), sparseInput32(rng, cols, density, density > 0 && trial%2 == 1))
				}
				var batched Batch32
				xs.MulT32(w, &batched)
				dense, sparse := NewVec32(w.Padded()), NewVec32(w.Padded())
				var nz []int32
				for i := 0; i < xs.Rows; i++ {
					x := xs.Row(i)
					nz = NonZero32(x, nz)
					for k, c := range nz {
						if x[c] == 0 || (k > 0 && nz[k-1] >= c) {
							t.Fatalf("NonZero32 listed column %d (value %v) at position %d of %v", c, x[c], k, nz)
						}
					}
					w.MulVec32(x, dense)
					for j := range sparse {
						sparse[j] = float32(math.NaN()) // every output must be written
					}
					w.MulVecNZ32(x, nz, sparse)
					for r := range dense {
						if !sameFloat32(sparse[r], dense[r]) || !sameFloat32(sparse[r], batched.Row(i)[r]) {
							t.Fatalf("hidden %d density %v row %d output %d: sparse %v, MulVec32 %v, MulT32 %v (%d non-zero columns)",
								hidden, density, i, r, sparse[r], dense[r], batched.Row(i)[r], len(nz))
						}
					}
				}
			}
		}
	}
}

// TestNonZero32 pins what counts as a column to visit: everything but ±0.
func TestNonZero32(t *testing.T) {
	x := Vec32{0, 1, float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32,
		float32(math.NaN()), 0, float32(math.Inf(-1)), -2}
	got := NonZero32(x, nil)
	want := []int32{1, 3, 4, 6, 7}
	if !slices.Equal(got, want) {
		t.Fatalf("NonZero32 = %v, want %v", got, want)
	}
	if got = NonZero32(Vec32{0, 0}, got); len(got) != 0 {
		t.Fatalf("NonZero32 of zeros = %v", got)
	}
}

// TestMulVecNZ32RejectsBadColumns: the assembly kernels index by the
// column list unchecked, so the wrapper must refuse a list that is out of
// range or out of order.
func TestMulVecNZ32RejectsBadColumns(t *testing.T) {
	w64 := NewMat(8, 5)
	w, err := PackPanels32(w64)
	if err != nil {
		t.Fatal(err)
	}
	x, dst := NewVec32(5), NewVec32(w.Padded())
	for name, nz := range map[string][]int32{
		"beyond the input": {1, 5},
		"negative":         {-1, 2},
		"descending":       {3, 2},
		"repeated":         {2, 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			w.MulVecNZ32(x, nz, dst)
		}()
	}
}

// gateEdges32 are the pre-activations where the gate arithmetic changes
// regime: the zeros, the tanh and sigmoid clamps and their neighbours,
// denormals, values whose exp underflows float32 before the clamp would
// apply, infinities and NaN.
func gateEdges32() []float32 {
	up := func(v float32) float32 { return math.Nextafter32(v, float32(math.Inf(1))) }
	down := func(v float32) float32 { return math.Nextafter32(v, float32(math.Inf(-1))) }
	edges := []float32{
		0, math.SmallestNonzeroFloat32, 1e-39, 1e-20, 0.5, 1, 4.51, up(4.51),
		tanhCap, up(tanhCap), down(tanhCap), sigmoidCap, up(sigmoidCap), down(sigmoidCap),
		44, 88, 100, math.MaxFloat32, float32(math.Inf(1)),
	}
	for _, v := range edges {
		edges = append(edges, -v)
	}
	return append(edges, float32(math.NaN()), -float32(math.NaN()))
}

// checkGates32MatchScalar runs lstmGates32 — whichever kernel the
// dispatch selects — beside the scalar loop over identical operands and
// requires every h and c bit to agree.
func checkGates32MatchScalar(t *testing.T, hd int, pre, rec, bias, c Vec32) {
	t.Helper()
	h1, c1 := NewVec32(hd), append(Vec32(nil), c...)
	h2, c2 := NewVec32(hd), append(Vec32(nil), c...)
	lstmGates32(hd, pre, rec, bias, h1, c1)
	lstmGates32go(hd, 0, pre, rec, bias, h2, c2)
	for j := 0; j < hd; j++ {
		if !sameFloat32(h1[j], h2[j]) || !sameFloat32(c1[j], c2[j]) {
			t.Fatalf("hidden %d unit %d: gates (h %v, c %v) != scalar (h %v, c %v); pre-activations i %v f %v g %v o %v, c_in %v",
				hd, j, h1[j], c1[j], h2[j], c2[j],
				pre[j]+rec[j]+bias[j], pre[hd+j]+rec[hd+j]+bias[hd+j],
				pre[2*hd+j]+rec[2*hd+j]+bias[2*hd+j], pre[3*hd+j]+rec[3*hd+j]+bias[3*hd+j], c[j])
		}
	}
}

// TestGates32MatchScalarBitwise pins the dispatching gate kernel to the
// scalar loop over more than a million random pre-activations at mixed
// scales (so both clamps and the linear range are all hit), and with every
// edge value in every gate position and in the cell state — at Hidden 64
// and at Hidden 10, where no gate segment starts vector-aligned and the
// last two units fall to the scalar tail. On a machine with AVX this is
// vector ≡ scalar; elsewhere it is trivially true and costs milliseconds.
func TestGates32MatchScalarBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	edges := gateEdges32()
	for _, hd := range []int{10, 64} {
		pre, rec, bias, c := NewVec32(4*hd), NewVec32(4*hd), NewVec32(4*hd), NewVec32(hd)
		for n := 0; n < 1<<20; n += 4 * hd {
			scale := []float64{0.1, 1, 4, 12}[rng.Intn(4)]
			for i := range pre {
				pre[i] = float32(rng.NormFloat64() * scale)
				rec[i] = float32(rng.NormFloat64() * scale / 2)
				bias[i] = float32(rng.NormFloat64() / 4)
			}
			for j := range c {
				c[j] = float32(rng.NormFloat64() * scale)
			}
			checkGates32MatchScalar(t, hd, pre, rec, bias, c)
		}
		// Edges: rec and bias carry a matching zero so that the summed
		// pre-activation is the edge value itself, −0 included.
		for gate := 0; gate <= 4; gate++ { // 4 = the cell state
			for e := 0; e < len(edges); e += hd {
				for i := range pre {
					pre[i] = float32(rng.NormFloat64())
					rec[i], bias[i] = 0, 0
				}
				for j := range c {
					c[j] = float32(rng.NormFloat64())
					if e+j >= len(edges) {
						continue
					}
					v := edges[e+j]
					if gate == 4 {
						c[j] = v
						continue
					}
					zero := float32(math.Copysign(0, float64(v)))
					pre[gate*hd+j], rec[gate*hd+j], bias[gate*hd+j] = v, zero, zero
				}
				checkGates32MatchScalar(t, hd, pre, rec, bias, c)
			}
		}
	}
}

// TestStepProjected32SharesProjection: rows that name one pre-activation
// row through src must step exactly as if each had its own copy of the
// input — the aliasing the serving lane relies on.
func TestStepProjected32SharesProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	l, err := NewLSTM(21, 10, rng).Quantize32()
	if err != nil {
		t.Fatal(err)
	}
	const B = 6
	distinct := randBatch32(rng, 2, 21)
	src := []int{0, 0, 1, 0, 1, 1}
	hs, cs := randBatch32(rng, B, 10), randBatch32(rng, B, 10)
	wantH, wantC, xs := &Batch32{}, &Batch32{}, &Batch32{}
	wantH.Resize(B, 10)
	wantC.Resize(B, 10)
	xs.Resize(B, 21)
	copy(wantH.Data, hs.Data)
	copy(wantC.Data, cs.Data)
	for i, p := range src {
		copy(xs.Row(i), distinct.Row(p))
	}
	var s BatchScratch32
	l.StepBatch32(wantH, wantC, xs, &s)

	var pre Batch32
	pre.Resize(distinct.Rows, l.Wx.Padded())
	var nz []int32
	for p := 0; p < distinct.Rows; p++ {
		nz = NonZero32(distinct.Row(p), nz)
		l.Wx.MulVecNZ32(distinct.Row(p), nz, pre.Row(p))
	}
	l.StepProjected32(hs, cs, &pre, src, &s)
	for i := range hs.Data {
		if !sameFloat32(hs.Data[i], wantH.Data[i]) || !sameFloat32(cs.Data[i], wantC.Data[i]) {
			t.Fatalf("element %d: shared projection (%v,%v) != own input (%v,%v)",
				i, hs.Data[i], cs.Data[i], wantH.Data[i], wantC.Data[i])
		}
	}
}
