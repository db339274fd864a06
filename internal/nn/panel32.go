package nn

import (
	"fmt"
	"math"
)

// Panel-packed float32 weights. A PanelMat32 stores the rows of a weight
// matrix in panels of 8: panel p holds rows 8p..8p+7 column-interleaved, so
// the 8 weights a column contributes to one panel are contiguous in memory.
// The matmul inner loop then reads one contiguous 8-float weight vector and
// one broadcast input scalar per iteration, accumulating 8 independent
// outputs with no horizontal reduction — the exact shape one 8-wide FMA
// wants, served by an AVX kernel on amd64 and by a bounds-check-free pure
// Go kernel everywhere else (see `make bce`).
//
// Each output element accumulates strictly in ascending-column order in
// both kernels (the vector lanes are per-output, not per-column partial
// sums, and the AVX kernel multiplies and adds with separate, unfused
// instructions), so the assembly and portable paths produce bit-identical
// float32 results, and the batched kernels are bit-identical to the scalar
// MulVec32 — the float32 analogue of the MulT/MulVec contract.

// panelWidth is the number of weight rows interleaved per panel. Eight
// float32 lanes fill one 256-bit vector register.
const panelWidth = 8

// PanelMat32 is a float32 weight matrix packed in 8-row panels.
type PanelMat32 struct {
	Rows, Cols int       // logical dimensions
	Panels     int       // ceil(Rows/panelWidth); rows beyond Rows are zero
	Data       []float32 // len == Panels*Cols*panelWidth
}

// Padded returns the padded row count Panels*8; kernel outputs have this
// length, with entries beyond Rows always zero.
func (p *PanelMat32) Padded() int { return p.Panels * panelWidth }

// panel returns panel p's backing storage, exactly Cols*panelWidth long
// (the two-step slice hands prove an exact length; see lstmGates32).
func (p *PanelMat32) panel(pi int) []float32 {
	n := p.Cols * panelWidth
	return p.Data[pi*n:][:n]
}

// MulVec32 computes w·x into dst, which must have length w.Padded().
// Entries [Rows, Padded) are the zero padding lanes. The accumulation
// order per output is ascending-column, identical to the batched MulT32.
func (w *PanelMat32) MulVec32(x Vec32, dst Vec32) {
	if len(x) != w.Cols || len(dst) != w.Padded() {
		panic(fmt.Sprintf("nn: MulVec32 shape mismatch (%dx%d)·%d -> %d", w.Rows, w.Cols, len(x), len(dst)))
	}
	if len(x) == 0 {
		dst.Zero()
		return
	}
	for pi := 0; pi < w.Panels; pi++ {
		wp := w.panel(pi)
		d := dst[pi*panelWidth:][:panelWidth]
		// The pointer derivations compile check-free: x is proven non-empty
		// above, d has constant length 8, and wp's emptiness guard is part
		// of the branch condition (always true here — len(wp) is 8·Cols > 0).
		if useAVX && len(wp) > 0 {
			panelMul1avx(&wp[0], &x[0], w.Cols, &d[0])
		} else {
			panelMul1go(wp, x, d)
		}
	}
}

// MulT32 computes dst = x · wᵀ with dst resized to x.Rows × w.Padded():
// dst[i][r] = Σ_c w[r][c]·x[i][c] for r < w.Rows, zeros in the padding
// columns. Weight panels stream through cache once per call and each
// panel load feeds up to four batch rows, like the float64 MulT — but the
// inner loop produces 8 outputs per weight load with no reduction, the
// layout the AVX kernel consumes directly.
func (x *Batch32) MulT32(w *PanelMat32, dst *Batch32) {
	if x.Cols != w.Cols {
		panic(fmt.Sprintf("nn: MulT32 shape mismatch (%dx%d)·(%dx%d)ᵀ", x.Rows, x.Cols, w.Rows, w.Cols))
	}
	dst.Resize(x.Rows, w.Padded())
	cols := x.Cols
	if cols <= 0 {
		for i := range dst.Data {
			dst.Data[i] = 0
		}
		return
	}
	// All row slices below take the two-step [start:][:n] form so prove sees
	// exact lengths: cols > 0 for the inputs, the constant 8 for the
	// destinations — every &s[0] derivation then compiles check-free.
	for pi := 0; pi < w.Panels; pi++ {
		wp := w.panel(pi)
		off := pi * panelWidth
		i := 0
		for ; i+4 <= x.Rows; i += 4 {
			x0 := x.Data[i*cols:][:cols]
			x1 := x.Data[(i+1)*cols:][:cols]
			x2 := x.Data[(i+2)*cols:][:cols]
			x3 := x.Data[(i+3)*cols:][:cols]
			d0 := dst.Data[i*dst.Cols+off:][:panelWidth]
			d1 := dst.Data[(i+1)*dst.Cols+off:][:panelWidth]
			d2 := dst.Data[(i+2)*dst.Cols+off:][:panelWidth]
			d3 := dst.Data[(i+3)*dst.Cols+off:][:panelWidth]
			if useAVX && len(wp) > 0 {
				panelMul4avx(&wp[0], &x0[0], &x1[0], &x2[0], &x3[0], cols, &d0[0], &d1[0], &d2[0], &d3[0])
			} else {
				panelMul1go(wp, x0, d0)
				panelMul1go(wp, x1, d1)
				panelMul1go(wp, x2, d2)
				panelMul1go(wp, x3, d3)
			}
		}
		for ; i < x.Rows; i++ {
			xi := x.Data[i*cols:][:cols]
			di := dst.Data[i*dst.Cols+off:][:panelWidth]
			if useAVX && len(wp) > 0 {
				panelMul1avx(&wp[0], &xi[0], cols, &di[0])
			} else {
				panelMul1go(wp, xi, di)
			}
		}
	}
}

// NonZero32 returns, in nz[:0], the ascending indices of x's non-zero
// elements: the column list MulVecNZ32 visits. ±0 is skipped; NaN, ±Inf and
// denormals are non-zero. The loop is branch-free — which elements of a
// feature vector are zero is data-random, and a mispredicted branch per
// element would cost more than the projection the list saves.
func NonZero32(x Vec32, nz []int32) []int32 {
	if cap(nz) < len(x) {
		nz = make([]int32, len(x))
	}
	nz = nz[:len(x)]
	n := 0
	for i, v := range x {
		if uint(n) < uint(len(nz)) { // always true (0 ≤ n ≤ i); proves the store in-bounds
			nz[n] = int32(i)
		}
		b := math.Float32bits(v) << 1 // drops the sign: zero iff v is ±0
		n += int((b | -b) >> 31)
	}
	return nz[:n]
}

// MulVecNZ32 is MulVec32 over the columns listed in nz only, which must be
// ascending and, for the result to equal MulVec32's, include every non-zero
// element of x (NonZero32 builds exactly that list). Bit-identical to the
// dense kernels: each output is the same ascending-column chain with the
// exact-zero terms left out, and a term w·(±0) is ±0 for the finite weights
// quantization guarantees, which never changes a float32 accumulator that
// started at +0 — such an accumulator is never −0, and x + ±0 = x for every
// other x. The cost is proportional to len(nz), not Cols: the input
// projection of a feature vector that is four-fifths zeros.
//
// One input row runs against four adjacent panels at a time, so the four
// accumulators are the independent dependency chains that hide the add
// latency; the dense kernels get theirs from four batch rows instead.
func (w *PanelMat32) MulVecNZ32(x Vec32, nz []int32, dst Vec32) {
	if len(x) != w.Cols || len(dst) != w.Padded() {
		panic(fmt.Sprintf("nn: MulVecNZ32 shape mismatch (%dx%d)·%d -> %d", w.Rows, w.Cols, len(x), len(dst)))
	}
	// The assembly kernels index x and the panels by these columns
	// unchecked, so the list is validated here, once per call.
	last := int32(-1)
	for _, c := range nz {
		if c <= last {
			panic("nn: MulVecNZ32 column list not ascending")
		}
		last = c
	}
	if int(last) >= len(x) {
		panic("nn: MulVecNZ32 column beyond the input")
	}
	if len(nz) == 0 {
		dst.Zero()
		return
	}
	stride := w.Cols * panelWidth
	pi := 0
	if useAVX {
		for ; pi+4 <= w.Panels; pi += 4 {
			wp := w.Data[pi*stride:][:4*stride]
			d := dst[pi*panelWidth:][:4*panelWidth]
			if len(wp) > 0 && len(x) > 0 {
				panelMulNZ4avx(&wp[0], stride*4, &x[0], &nz[0], len(nz), &d[0])
			}
		}
	}
	for ; pi < w.Panels; pi++ {
		wp := w.panel(pi)
		d := dst[pi*panelWidth:][:panelWidth]
		if useAVX && len(wp) > 0 && len(x) > 0 {
			panelMulNZ1avx(&wp[0], &x[0], &nz[0], len(nz), &d[0])
		} else {
			panelMulNZgo(wp, x, nz, d)
		}
	}
}

// panelMul1go is the portable panel kernel: dst[j] = Σ_c wp[c*8+j]·x[c]
// for j in [0,8). The eight accumulators are independent scalar chains and
// every load in the loop body is proven in-bounds by the slice-length
// guards, so the loop compiles with no bounds checks (`make bce`).
func panelMul1go(wp []float32, x []float32, dst []float32) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float32
	for len(wp) >= panelWidth && len(x) > 0 {
		xv := x[0]
		a0 += wp[0] * xv
		a1 += wp[1] * xv
		a2 += wp[2] * xv
		a3 += wp[3] * xv
		a4 += wp[4] * xv
		a5 += wp[5] * xv
		a6 += wp[6] * xv
		a7 += wp[7] * xv
		x = x[1:]
		wp = wp[panelWidth:]
	}
	if len(dst) < panelWidth {
		panic("nn: panelMul1go short destination")
	}
	dst[0] = a0
	dst[1] = a1
	dst[2] = a2
	dst[3] = a3
	dst[4] = a4
	dst[5] = a5
	dst[6] = a6
	dst[7] = a7
}

// panelMulNZgo is panelMul1go over the listed columns only: the portable
// twin of panelMulNZ1avx and panelMulNZ4avx. The column loads are
// data-dependent, so each is proven by an explicit length guard (never
// taken: MulVecNZ32 validated the list) rather than by loop structure.
func panelMulNZgo(wp []float32, x []float32, nz []int32, dst []float32) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float32
	for _, c32 := range nz {
		c := int(c32)
		if c < 0 || c >= len(x) || c >= len(wp)/panelWidth {
			panic("nn: panelMulNZgo column out of range")
		}
		xv := x[c]
		wc := wp[c*panelWidth:][:panelWidth]
		a0 += wc[0] * xv
		a1 += wc[1] * xv
		a2 += wc[2] * xv
		a3 += wc[3] * xv
		a4 += wc[4] * xv
		a5 += wc[5] * xv
		a6 += wc[6] * xv
		a7 += wc[7] * xv
	}
	if len(dst) < panelWidth {
		panic("nn: panelMulNZgo short destination")
	}
	dst[0] = a0
	dst[1] = a1
	dst[2] = a2
	dst[3] = a3
	dst[4] = a4
	dst[5] = a5
	dst[6] = a6
	dst[7] = a7
}
