package nn

// Sparse input projection for batched training. Xatu's feature vectors are
// hierarchical per-service traffic counters, and in any one aggregation
// window most services are silent — typical rows carry a handful of
// non-zeros out of 273 features. The input-side matmuls (Wx·x forward,
// dz·xᵀ into GWx backward) dominate training flops, and both reduce to a
// few 4H-wide axpys per row when driven from a packed non-zero list.
//
// Bit-exactness: skipping an exact-zero term cannot change an IEEE-754 sum
// that starts at +0 — +0 + (±0·w) stays +0, a non-zero partial sum is
// unchanged by adding ±0, and a partial sum can only return to zero as +0
// (x + (−x) rounds to +0), where adding ±0 again keeps +0. So per call the
// sparse kernels accumulate exactly the dense kernels' per-element sums:
// the forward pre-activations are bit-identical, and a BackwardBatch into
// zero GWx matches the dense path bit-for-bit. When GWx already holds a
// previous chunk's gradients the end-of-call flush adds the same terms with
// one different association; the dense/sparse choice is a pure function of
// the chunk's data, so training stays deterministic either way.
//
// Like the other training kernels these compile with zero per-element
// bounds checks (`make bce`) via exact-length reslicing.

// sparseDensityNum/Den: the sparse path is taken when
// nnz * sparseDensityDen < rows * cols * sparseDensityNum, i.e. below ~50%
// density, where a 4H-wide axpy per non-zero beats the register-blocked
// dense kernel streaming every column.
const (
	sparseDensityNum = 1
	sparseDensityDen = 2
)

// axpy computes dst[i] += a*x[i]. Lengths must match. On AVX machines
// axpyavx does the same two operations per element, four elements wide.
func axpy(dst, x []float64, a float64) {
	if len(x) != len(dst) {
		panic("nn: axpy length mismatch")
	}
	x = x[:len(dst)]
	if useAVX && len(dst) > 0 {
		axpyavx(&dst[0], &x[0], a, len(dst))
		return
	}
	for i := range dst {
		dst[i] += a * x[i]
	}
}

// BuildSparse scans the packed inputs in tp.Xs into a CSR non-zero list
// (row order: step-major, batch row within step) and enables the sparse
// input-projection path when the measured density is low enough to win.
// Call after filling Xs and before ForwardBatch. All storage is grow-only.
func (tp *BatchTape) BuildSparse() {
	tp.nzIdx = tp.nzIdx[:0]
	tp.nzVal = tp.nzVal[:0]
	tp.nzPtr = append(tp.nzPtr[:0], 0)
	T, B := tp.T, tp.B
	xsA := tp.Xs[:T]
	for t := 0; t < T; t++ {
		xb := &xsA[t]
		for i := 0; i < B; i++ {
			row := xb.Row(i)
			for c, v := range row {
				if v != 0 {
					tp.nzIdx = append(tp.nzIdx, int32(c))
					tp.nzVal = append(tp.nzVal, v)
				}
			}
			tp.nzPtr = append(tp.nzPtr, int32(len(tp.nzVal)))
		}
	}
	tp.sparse = len(tp.nzVal)*sparseDensityDen < T*B*tp.in*sparseDensityNum
}

// Sparse reports whether the last BuildSparse enabled the sparse
// input-projection path (observability for tests and tuning).
func (tp *BatchTape) Sparse() bool { return tp.sparse }

// sparsePre fills s.pre rows for step t from the CSR list and the
// pre-transposed input weights in wxT: pre.Row(i) = Σ_nz xv · wxT.Row(c),
// non-zeros in ascending column order — exactly MulVec's per-element
// accumulation order with the zero terms dropped.
func (tp *BatchTape) sparsePre(pre *Batch, wxT *Batch, t int) {
	B := tp.B
	pre.Resize(B, wxT.Cols)
	for i := range pre.Data {
		pre.Data[i] = 0
	}
	if len(tp.nzPtr) < (t+1)*B+1 {
		panic("nn: sparsePre before BuildSparse")
	}
	ptr := tp.nzPtr[t*B:][:B+1]
	for i := 1; i < len(ptr); i++ { // i-1/i row-pointer pairing keeps the loop check-free
		row := pre.Row(i - 1)
		lo, hi := int(ptr[i-1]), int(ptr[i])
		idx := tp.nzIdx[lo:hi]
		val := tp.nzVal[lo:hi]
		val = val[:len(idx)]
		for k, c := range idx {
			axpy(row, wxT.Row(int(c)), val[k])
		}
	}
}

// sparseGrad accumulates step t's input-weight gradient into the
// transposed scratch: gwxT.Row(c) += xv · dz.Row(i) for every non-zero
// (i, c, xv) of the step, batch rows in ascending order — the same
// per-element term order as AddOuterBatch with the zero-input terms
// dropped.
func (tp *BatchTape) sparseGrad(gwxT *Batch, dz *Batch, t int) {
	B := tp.B
	if len(tp.nzPtr) < (t+1)*B+1 {
		panic("nn: sparseGrad before BuildSparse")
	}
	ptr := tp.nzPtr[t*B:][:B+1]
	for i := 1; i < len(ptr); i++ { // i-1/i row-pointer pairing keeps the loop check-free
		dzr := dz.Row(i - 1)
		lo, hi := int(ptr[i-1]), int(ptr[i])
		idx := tp.nzIdx[lo:hi]
		val := tp.nzVal[lo:hi]
		val = val[:len(idx)]
		for k, c := range idx {
			axpy(gwxT.Row(int(c)), dzr, val[k])
		}
	}
}
