//go:build amd64

package nn

import (
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
