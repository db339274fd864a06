package nn

import (
	"fmt"
	"math"
)

// Batched training kernels: the float64 gate arithmetic shared by Step and
// ForwardBatch, the per-row BPTT gate gradients, and the two batch-level
// gradient matmuls (outer-product accumulation and transposed
// propagation, which also yields dL/dx). These are the inner loops of
// every training step, so like the float32 serving kernels they must
// compile with zero per-element bounds checks (`make bce`): every loop
// body indexes only slices whose length the compiler has proven, via
// exact-length two-step reslicing.
//
// Bit-exactness contract: per batch row, every kernel performs exactly the
// arithmetic (and zero-skips) of its single-row counterpart in mat.go
// (MulVec, MulVecTrans, AddOuter), in the same per-element order, so what
// a row computes does not depend on the batch it rides in and any batch
// size is deterministic. On AVX machines the per-row updates run in
// assembly (axpyavx, addOuter4avx; panel_amd64.s) that gives every element
// these loops' operations in these loops' order, unfused, so useAVX moves
// no byte; the Go loops are the portable path and the reference.

// lstmGatesTape applies the gate nonlinearities for one stream and records
// the post-activation gate values [i f g o] on the tape row, and tanh of the
// new cell state in tc (BPTT reads it instead of recomputing it). On entry
// c holds the previous cell state; on return h and c hold the next hidden
// and cell states. It is the single definition of the float64 forward gate
// arithmetic, shared by Step (the streaming oracle) and ForwardBatch
// (training and attribution), so the two cannot drift. Where the CPU has
// AVX and FMA, lstmGates4avx takes the units four at a time with every bit
// of lstmGatesTapeGo's; a group it cannot take (an argument outside exp's
// polynomial range, a NaN) and the tail run the scalar loop.
func lstmGatesTape(hd int, pre, rec, bias, gates, h, c, tc Vec) {
	j := 0
	if useAVX && hasFMA && hd >= 4 {
		// The exact-length views the scalar loop takes: they panic on a
		// short operand before the assembly indexes it unchecked.
		p, r, b, g := pre[:4*hd], rec[:4*hd], bias[:4*hd], gates[:4*hd]
		hh, cc, tt := h[:hd], c[:hd], tc[:hd]
		n := hd &^ 3
		for len(p) > 0 && j < n { // len(p) > 0 always holds; it proves the &p[0]
			j = lstmGates4avx(j, n, hd, &p[0], &r[0], &b[0], &g[0], &hh[0], &cc[0], &tt[0], &gate64K)
			if j < n {
				lstmGatesTapeGo(hd, j, j+4, pre, rec, bias, gates, h, c, tc)
				j += 4
			}
		}
	}
	lstmGatesTapeGo(hd, j, hd, pre, rec, bias, gates, h, c, tc)
}

// lstmGatesTapeGo is the scalar gate loop over units [from, to): the
// portable path, the vector kernel's tail and fallback, and the reference
// it is pinned to.
func lstmGatesTapeGo(hd, from, to int, pre, rec, bias, gates, h, c, tc Vec) {
	if from < 0 || from > to || to > hd {
		panic("nn: lstmGatesTapeGo unit range out of bounds")
	}
	pi, pf, pg, po := pre[0:][:hd][from:to], pre[hd:][:hd][from:to], pre[2*hd:][:hd][from:to], pre[3*hd:][:hd][from:to]
	ri, rf, rg, ro := rec[0:][:hd][from:to], rec[hd:][:hd][from:to], rec[2*hd:][:hd][from:to], rec[3*hd:][:hd][from:to]
	bi, bf, bg, bo := bias[0:][:hd][from:to], bias[hd:][:hd][from:to], bias[2*hd:][:hd][from:to], bias[3*hd:][:hd][from:to]
	gI, gF, gG, gO := gates[0:][:hd][from:to], gates[hd:][:hd][from:to], gates[2*hd:][:hd][from:to], gates[3*hd:][:hd][from:to]
	h = h[:hd][from:to]
	c = c[:hd][from:to]
	tc = tc[:hd][from:to]
	for j := range h {
		gi := Sigmoid(pi[j] + ri[j] + bi[j])
		gf := Sigmoid(pf[j] + rf[j] + bf[j])
		gg := math.Tanh(pg[j] + rg[j] + bg[j])
		go_ := Sigmoid(po[j] + ro[j] + bo[j])
		gI[j] = gi
		gF[j] = gf
		gG[j] = gg
		gO[j] = go_
		c[j] = gf*c[j] + gi*gg
		tc[j] = math.Tanh(c[j])
		h[j] = go_ * tc[j]
	}
}

// lstmGateGrads computes one stream's pre-activation gate gradients for one
// timestep of BPTT. gates/tc/cPrev are the taped forward values (tc is
// tanh of the cell state), dh is dL/dh at this step (recurrent flow plus
// any injection), and dc is dL/dc flowing from step t+1 — updated in place
// to the value flowing into step t-1 (scaled by the forget gate). dz
// receives the four gate gradients.
func lstmGateGrads(hd int, gates, tc, cPrev, dh, dc, dz Vec) {
	gI, gF, gG, gO := gates[0:][:hd], gates[hd:][:hd], gates[2*hd:][:hd], gates[3*hd:][:hd]
	zI, zF, zG, zO := dz[0:][:hd], dz[hd:][:hd], dz[2*hd:][:hd], dz[3*hd:][:hd]
	tc = tc[0:][:hd]
	cPrev = cPrev[0:][:hd]
	dh = dh[0:][:hd]
	dc = dc[0:][:hd]
	for j := range dh {
		gi, gf, gg, go_ := gI[j], gF[j], gG[j], gO[j]
		tcj := tc[j]
		d := dc[j] + dh[j]*go_*(1-tcj*tcj)
		zI[j] = d * gg * gi * (1 - gi)
		zF[j] = d * cPrev[j] * gf * (1 - gf)
		zG[j] = d * gi * (1 - gg*gg)
		zO[j] = dh[j] * tcj * go_ * (1 - go_)
		dc[j] = d * gf
	}
}

// AddOuterBatch accumulates Σ_i a.Row(i)·x.Row(i)ᵀ into m: the batched form
// of B AddOuter calls. Like MulT it iterates weight-gradient rows in the
// outer loop, so each row of m is streamed through cache once per batch
// instead of once per example, and blocks batch rows in tiles of
// mulTileRows so each load/store of a gradient element amortizes four
// multiply-adds. The tile accumulates left-to-right
// (((row+a0·x0)+a1·x1)+a2·x2)+a3·x3 — the same association as four
// sequential AddOuter calls — so any batch size keeps the sequential
// summation order bit-for-bit; a tile is entered only when all four
// coefficients are non-zero, preserving AddOuter's exact zero-skip
// semantics (and batch-1 always takes the remainder path, so it is
// bit-identical to AddOuter by construction). The remainder path is one
// axpy per non-zero coefficient.
func (m *Mat) AddOuterBatch(a, x *Batch) {
	if a.Cols != m.Rows || x.Cols != m.Cols || a.Rows != x.Rows {
		panic(fmt.Sprintf("nn: AddOuterBatch shape mismatch (%dx%d) += (%dx%d)ᵀ·(%dx%d)",
			m.Rows, m.Cols, a.Rows, a.Cols, x.Rows, x.Cols))
	}
	cols := m.Cols
	aCols := a.Cols
	for r := 0; r < aCols; r++ {
		row := m.Data[r*cols:][:cols]
		i := 0
		for ; i+mulTileRows <= a.Rows; i += mulTileRows {
			a0 := a.Data[i*aCols:][:aCols][r]
			a1 := a.Data[(i+1)*aCols:][:aCols][r]
			a2 := a.Data[(i+2)*aCols:][:aCols][r]
			a3 := a.Data[(i+3)*aCols:][:aCols][r]
			if a0 == 0 || a1 == 0 || a2 == 0 || a3 == 0 {
				// A zero coefficient must be skipped, not multiplied
				// through (AddOuter's contract); fall back to row-at-a-time
				// for this tile.
				addOuterRows(row, a, x, i, i+mulTileRows, r)
				continue
			}
			x0 := x.Data[i*cols:][:cols][:len(row)]
			x1 := x.Data[(i+1)*cols:][:cols][:len(row)]
			x2 := x.Data[(i+2)*cols:][:cols][:len(row)]
			x3 := x.Data[(i+3)*cols:][:cols][:len(row)]
			if useAVX && len(row) > 0 {
				addOuter4avx(&row[0], &x0[0], &x1[0], &x2[0], &x3[0], a0, a1, a2, a3, len(row))
				continue
			}
			for c := range row {
				row[c] = row[c] + a0*x0[c] + a1*x1[c] + a2*x2[c] + a3*x3[c]
			}
		}
		addOuterRows(row, a, x, i, a.Rows, r)
	}
}

// addOuterRows is the untiled tail of AddOuterBatch: batch rows [lo,hi)
// accumulated one at a time into gradient row `row`, with exactly
// AddOuter's per-element order and zero-skip.
func addOuterRows(row []float64, a, x *Batch, lo, hi, r int) {
	cols := x.Cols
	aCols := a.Cols
	if r < 0 || r >= aCols {
		// Written as two signed compares (not a uint trick) so the prove
		// pass eliminates the ai[r] bounds check below.
		panic("nn: addOuterRows column out of range")
	}
	for i := lo; i < hi; i++ {
		ai := a.Data[i*aCols:][:aCols]
		av := ai[r]
		if av == 0 {
			continue
		}
		axpy(row, x.Data[i*cols:][:cols], av)
	}
}

// MulTransBatch computes dst.Row(i) = wᵀ·a.Row(i) for every batch row,
// resizing dst to a.Rows × w.Cols: the batched form of B MulVecTrans calls
// (each into a freshly zeroed destination). The weight matrix is streamed
// once per call rather than once per example; per row the accumulation
// order and the zero-coefficient skip are exactly MulVecTrans's.
func MulTransBatch(a *Batch, w *Mat, dst *Batch) {
	if a.Cols != w.Rows {
		panic(fmt.Sprintf("nn: MulTransBatch shape mismatch (%dx%d)ᵀ·(%dx%d)", w.Rows, w.Cols, a.Rows, a.Cols))
	}
	dst.Resize(a.Rows, w.Cols)
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	cols := w.Cols
	aCols := a.Cols
	for r := 0; r < aCols; r++ {
		wr := w.Data[r*cols:][:cols]
		for i := 0; i < a.Rows; i++ {
			ai := a.Data[i*aCols:][:aCols]
			av := ai[r]
			if av == 0 {
				continue
			}
			axpy(dst.Data[i*cols:][:cols], wr, av)
		}
	}
}

// BackwardBatch accumulates weight gradients for B (input row, output
// gradient row) pairs and writes dL/dx into dxs (resized to B×In). Rows
// whose output gradient is entirely zero are skipped outright — their dxs
// rows stay zero — so a row with no loss contributes nothing. Per processed
// row the accumulation is AddOuter into GW, an add into GB and MulVecTrans
// into the dx row.
func (d *Dense) BackwardBatch(xs, dys, dxs *Batch) {
	if xs.Rows != dys.Rows || xs.Cols != d.In || dys.Cols != d.Out {
		panic(fmt.Sprintf("nn: Dense.BackwardBatch shape mismatch x(%dx%d) dy(%dx%d) layer(%dx%d)",
			xs.Rows, xs.Cols, dys.Rows, dys.Cols, d.Out, d.In))
	}
	dxs.Resize(xs.Rows, d.In)
	for i := range dxs.Data {
		dxs.Data[i] = 0
	}
	for i := 0; i < xs.Rows; i++ {
		dy := dys.Row(i)
		if vecAllZero(dy) {
			continue
		}
		d.GW.AddOuter(dy, xs.Row(i))
		d.GB.Add(dy)
		d.W.MulVecTrans(dy, dxs.Row(i))
	}
}

// vecAllZero reports whether every element of v is zero.
func vecAllZero(v Vec) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}
