//go:build amd64

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPanelKernelsAVXMatchesGoBitwise flips the kernel dispatch and runs
// the same panel matmuls through the AVX assembly and the portable Go
// loop: because the assembly uses separate (unfused) multiply and add,
// every output lane is the same strict ascending-column scalar chain and
// the results must be bit-identical — the property that makes float32
// serving reproducible across machines with and without AVX.
func TestPanelKernelsAVXMatchesGoBitwise(t *testing.T) {
	if !hasAVX() {
		t.Skip("no AVX on this machine")
	}
	saved := useAVX
	defer func() { useAVX = saved }()

	rng := rand.New(rand.NewSource(31))
	for _, shape := range []struct{ rows, cols, batch int }{
		{8, 1, 1}, {8, 273, 4}, {12, 9, 5}, {64, 273, 64}, {64, 16, 7}, {1, 3, 2},
	} {
		w64 := NewMat(shape.rows, shape.cols)
		w64.XavierInit(rng)
		w, err := PackPanels32(w64)
		if err != nil {
			t.Fatal(err)
		}
		x := randBatch32(rng, shape.batch, shape.cols)

		var avxOut, goOut Batch32
		useAVX = true
		x.MulT32(w, &avxOut)
		useAVX = false
		x.MulT32(w, &goOut)

		for i := range avxOut.Data {
			if math.Float32bits(avxOut.Data[i]) != math.Float32bits(goOut.Data[i]) {
				t.Fatalf("shape %+v: element %d AVX %v != Go %v",
					shape, i, avxOut.Data[i], goOut.Data[i])
			}
		}

		xv := x.Row(0)
		avxVec := NewVec32(w.Padded())
		goVec := NewVec32(w.Padded())
		useAVX = true
		w.MulVec32(xv, avxVec)
		useAVX = false
		w.MulVec32(xv, goVec)
		for i := range avxVec {
			if math.Float32bits(avxVec[i]) != math.Float32bits(goVec[i]) {
				t.Fatalf("shape %+v: MulVec32 element %d AVX %v != Go %v",
					shape, i, avxVec[i], goVec[i])
			}
		}

		// The non-zero-column kernels, over a two-thirds-zero copy of the
		// row: the four-panel assembly, its one-panel remainder and the
		// portable twin.
		for c := range xv {
			if rng.Intn(3) > 0 {
				xv[c] = 0
			}
		}
		nz := NonZero32(xv, nil)
		useAVX = true
		w.MulVecNZ32(xv, nz, avxVec)
		useAVX = false
		w.MulVecNZ32(xv, nz, goVec)
		for i := range avxVec {
			if math.Float32bits(avxVec[i]) != math.Float32bits(goVec[i]) {
				t.Fatalf("shape %+v: MulVecNZ32 element %d AVX %v != Go %v",
					shape, i, avxVec[i], goVec[i])
			}
		}
	}
}

// TestServingStepAVXMatchesGoBitwise flips the same switch under the whole
// serving kernel — non-zero-column input projection, dense recurrent
// projection, vector gates — and steps two copies of a batch side by side:
// every h and c bit must agree at every step, at Hidden 64 and at Hidden
// 10 (a remainder panel in W_x, a scalar tail and unaligned gate segments
// in the gates). AVX with OS-enabled YMM state is the only CPU feature any
// of the assembly needs, so useAVX is the only switch there is to flip.
func TestServingStepAVXMatchesGoBitwise(t *testing.T) {
	if !hasAVX() {
		t.Skip("no AVX on this machine")
	}
	saved := useAVX
	defer func() { useAVX = saved }()

	rng := rand.New(rand.NewSource(32))
	for _, hidden := range []int{10, 64} {
		l, err := NewLSTM(273, hidden, rng).Quantize32()
		if err != nil {
			t.Fatal(err)
		}
		const B = 6
		var hsA, csA, hsG, csG, xs Batch32
		for _, b := range []*Batch32{&hsA, &csA, &hsG, &csG} {
			b.Resize(B, hidden)
			for i := range b.Data {
				b.Data[i] = 0
			}
		}
		xs.Resize(B, 273)
		var sA, sG BatchScratch32
		for step := 0; step < 12; step++ {
			for i := 0; i < B; i++ {
				copy(xs.Row(i), sparseInput32(rng, 273, 0.18, false))
			}
			useAVX = true
			l.StepBatch32(&hsA, &csA, &xs, &sA)
			useAVX = false
			l.StepBatch32(&hsG, &csG, &xs, &sG)
			for i := range hsA.Data {
				if math.Float32bits(hsA.Data[i]) != math.Float32bits(hsG.Data[i]) ||
					math.Float32bits(csA.Data[i]) != math.Float32bits(csG.Data[i]) {
					t.Fatalf("hidden %d step %d element %d: AVX (%v,%v) != Go (%v,%v)",
						hidden, step, i, hsA.Data[i], csA.Data[i], hsG.Data[i], csG.Data[i])
				}
			}
		}
	}
}

// sameFloat64 is bit equality, except that any NaN equals any NaN: which
// payload survives an operation on two NaNs is the instruction's operand
// order, not arithmetic.
func sameFloat64(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// edgyVec draws n values: mostly Gaussian, with ±0, subnormals, ±Inf and
// NaN mixed in when specials is set.
func edgyVec(rng *rand.Rand, n int, specials bool) []float64 {
	edges := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, 1e-310, math.Inf(1), math.Inf(-1), math.NaN()}
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
		if specials && rng.Intn(4) == 0 {
			v[i] = edges[rng.Intn(len(edges))]
		}
	}
	return v
}

// checkSame64 fails the test at the first element where the AVX and the
// Go results differ.
func checkSame64(t *testing.T, what string, avx, goRef []float64) {
	t.Helper()
	for i := range goRef {
		if !sameFloat64(avx[i], goRef[i]) {
			t.Fatalf("%s: element %d AVX %v != Go %v", what, i, avx[i], goRef[i])
		}
	}
}

// TestTrainingKernelsAVXMatchesGoBitwise flips useAVX under each float64
// training kernel — axpy (the sparse projection, its gradient and the
// untiled outer-product and transposed-product rows), AddOuterBatch's
// 4-row tile and MulT over transposed weights — at widths that leave
// every tail of the 8-, 4- and 1-wide loops, at batch sizes that leave
// every tile remainder, with zero coefficients (one inside a 4-row tile),
// and over ±0, subnormals, ±Inf and NaN.
func TestTrainingKernelsAVXMatchesGoBitwise(t *testing.T) {
	if !hasAVX() {
		t.Skip("no AVX on this machine")
	}
	saved := useAVX
	defer func() { useAVX = saved }()

	rng := rand.New(rand.NewSource(33))
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 40, 64, 256, 273}
	for _, n := range widths {
		for _, specials := range []bool{false, true} {
			x := edgyVec(rng, n, specials)
			base := edgyVec(rng, n, specials)
			for _, a := range append(edgyVec(rng, 3, specials), 0, math.Copysign(0, -1)) {
				avx, goRef := append([]float64(nil), base...), append([]float64(nil), base...)
				useAVX = true
				axpy(avx, x, a)
				useAVX = false
				axpy(goRef, x, a)
				checkSame64(t, fmt.Sprintf("axpy n=%d a=%v", n, a), avx, goRef)
			}
		}
	}

	// The batch kernels: m is aRows×n, a is B×aRows, x is B×n.
	const aRows = 6
	for _, n := range widths {
		for B := 1; B <= 9; B++ {
			specials := (n+B)%2 == 0
			a := &Batch{Rows: B, Cols: aRows, Data: edgyVec(rng, B*aRows, specials)}
			// Zero coefficients: a whole coefficient row, and one entry of
			// the first 4-row tile of another.
			for i := 0; i < B; i++ {
				a.Data[i*aRows+1] = 0
			}
			if B >= 4 {
				a.Data[2*aRows+3] = math.Copysign(0, -1)
			}
			x := &Batch{Rows: B, Cols: n, Data: edgyVec(rng, B*n, specials)}
			m := &Mat{Rows: aRows, Cols: n, Data: edgyVec(rng, aRows*n, specials)}

			avx, goRef := m.Clone(), m.Clone()
			useAVX = true
			avx.AddOuterBatch(a, x)
			useAVX = false
			goRef.AddOuterBatch(a, x)
			checkSame64(t, fmt.Sprintf("AddOuterBatch n=%d B=%d", n, B), avx.Data, goRef.Data)

			var dAVX, dGo Batch
			useAVX = true
			MulTransBatch(a, m, &dAVX)
			useAVX = false
			MulTransBatch(a, m, &dGo)
			checkSame64(t, fmt.Sprintf("MulTransBatch n=%d B=%d", n, B), dAVX.Data, dGo.Data)

			// MulT: x (B×n) against w with a multiple-of-4 row count, as
			// every LSTM weight matrix has (4·Hidden rows).
			for _, rows := range []int{4, 8, 12, 16, 20, 40, 64, 256} {
				w := &Mat{Rows: rows, Cols: n, Data: edgyVec(rng, rows*n, specials)}
				var wT, pAVX, pGo Batch
				transposeInto(&wT, w)
				x.mulTTransposed(&wT, &pAVX)
				x.MulT(w, &pGo)
				checkSame64(t, fmt.Sprintf("MulT rows=%d cols=%d B=%d", rows, n, B), pAVX.Data, pGo.Data)
			}
		}
	}
}
