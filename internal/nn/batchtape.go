package nn

// Batched BPTT support. A BatchTape records the forward activations of B
// same-length sequences advancing through one shared LSTM, one Batch
// (batch.go) per timestep, so BackwardBatch can replay them. All storage is grow-only
// and caller-owned — Reset reuses every buffer that is already large
// enough, so a steady-state training loop (same lane shapes recurring epoch
// after epoch) performs no allocation.
//
// The batched forward runs the register-blocked MulT kernel — on AVX
// machines its vector form against weights transposed once per call — and
// the same gate arithmetic as Step (both share lstmGatesTape), so row i of
// a batched pass is bit-identical to stepping sequence i through Step from
// zero state. BackwardBatchDX is the only BPTT: training runs it for weight
// gradients alone (BackwardBatch), attribution also for dL/dx.

// BatchTape caches per-step batched activations from ForwardBatch for use
// in BackwardBatch. Xs[t], H[t], C[t] and Gates[t] hold row i's input,
// hidden state, cell state and post-activation gate values [i f g o] at
// timestep t; tc[t] holds tanh of the cell state, which the forward pass
// computes for H and the backward pass needs again. The caller fills Xs
// (via Reset + packing rows) and hands the tape to ForwardBatch.
type BatchTape struct {
	B, T   int // batch rows and timesteps currently active
	in, hd int
	Xs     []Batch // len ≥ T, each B×in
	H      []Batch // len ≥ T, each B×hd
	C      []Batch // len ≥ T, each B×hd
	Gates  []Batch // len ≥ T, each B×4hd
	tc     []Batch // len ≥ T, each B×hd

	pre, rec Batch // per-step pre-activation scratch
	zero     Batch // all-zero B×hd batch standing in for the t=-1 state

	// Sparse input projection (sparsetrain.go). BuildSparse packs the
	// non-zeros of Xs into CSR form (row order t·B+i) and sets sparse when
	// the density is low enough for the axpy kernels to win; Reset clears
	// the flag so an unpacked tape always takes the dense path.
	sparse bool
	nzIdx  []int32
	nzVal  []float64
	nzPtr  []int32
	wxT    Batch // Wxᵀ scratch for the sparse forward and the AVX dense one
	whT    Batch // Whᵀ scratch for the AVX recurrent product
	gwxT   Batch // transposed GWx accumulation for the sparse backward
}

// growBatches extends bs to n entries, keeping existing backing storage,
// and resizes the first n to rows×cols.
func growBatches(bs []Batch, n, rows, cols int) []Batch {
	for len(bs) < n {
		bs = append(bs, Batch{})
	}
	for i := 0; i < n; i++ {
		bs[i].Resize(rows, cols)
	}
	return bs
}

// Reset prepares the tape for a ForwardBatch of B sequences of length T
// through l, reusing all backing storage that is already large enough.
// Contents of Xs after Reset are unspecified; the caller overwrites every
// row it uses. H, C, Gates and tc are fully written by ForwardBatch.
func (tp *BatchTape) Reset(l *LSTM, B, T int) {
	tp.B, tp.T = B, T
	tp.in, tp.hd = l.In, l.Hidden
	tp.Xs = growBatches(tp.Xs, T, B, l.In)
	tp.H = growBatches(tp.H, T, B, l.Hidden)
	tp.C = growBatches(tp.C, T, B, l.Hidden)
	tp.Gates = growBatches(tp.Gates, T, B, 4*l.Hidden)
	tp.tc = growBatches(tp.tc, T, B, l.Hidden)
	tp.zero.Resize(B, l.Hidden)
	for i := range tp.zero.Data {
		tp.zero.Data[i] = 0
	}
	tp.sparse = false
}

// ForwardBatch runs the LSTM over the B sequences packed into tp.Xs from
// zero state, filling tp.H, tp.C and tp.Gates. Row i advances through
// exactly the arithmetic of Step (shared lstmGatesTape, MulT per-element
// order equal to MulVec), so batched activations are bit-identical to B
// independent Step sequences.
func (l *LSTM) ForwardBatch(tp *BatchTape) {
	hd := l.Hidden
	T := tp.T
	xsA, hA, cA, gA, tcA := tp.Xs[:T], tp.H[:T], tp.C[:T], tp.Gates[:T], tp.tc[:T]
	avx := useAVX
	// One transpose per call lets every step's products walk weight
	// columns contiguously, vectorised over outputs; amortized over T steps.
	if tp.sparse || avx {
		transposeInto(&tp.wxT, l.Wx)
	}
	if avx {
		transposeInto(&tp.whT, l.Wh)
	}
	for t := 0; t < T; t++ {
		xs := &xsA[t]
		hPrev, cPrev := &tp.zero, &tp.zero
		if t > 0 {
			hPrev, cPrev = &hA[t-1], &cA[t-1]
		}
		switch {
		case tp.sparse:
			tp.sparsePre(&tp.pre, &tp.wxT, t)
		case avx:
			xs.mulTTransposed(&tp.wxT, &tp.pre)
		default:
			xs.MulT(l.Wx, &tp.pre)
		}
		if avx {
			hPrev.mulTTransposed(&tp.whT, &tp.rec)
		} else {
			hPrev.MulT(l.Wh, &tp.rec)
		}
		ht, ct, gt, tct := &hA[t], &cA[t], &gA[t], &tcA[t]
		// lstmGatesTape updates the cell state in place from its previous
		// value; seed this step's C with the previous step's rows first.
		copy(ct.Data, cPrev.Data)
		for i := 0; i < tp.B; i++ {
			lstmGatesTape(hd, tp.pre.Row(i), tp.rec.Row(i), l.B, gt.Row(i), ht.Row(i), ct.Row(i), tct.Row(i))
		}
	}
}

// BatchGradScratch holds the recurrent gradient buffers one BackwardBatch
// pass needs. Caller-owned and reusable across calls (zero value ready),
// like StepScratch; not safe for concurrent use.
type BatchGradScratch struct {
	dh, dhNext, dc, dz Batch
}

// BackwardBatch runs backpropagation through time over the batched tape.
// dH[t] is the batch of dL/dH[t] gradients injected from above; touched[t]
// reports whether step t received any injection (untouched steps skip the
// add entirely, and their dH[t] is never read). Weight gradients are
// accumulated into the layer. Input gradients are not produced: training
// ignores them, and skipping the dL/dx matmul removes the largest backward
// kernel (4H×In) entirely; BackwardBatchDX is the same pass with them.
func (l *LSTM) BackwardBatch(tp *BatchTape, dH []Batch, touched []bool, s *BatchGradScratch) {
	l.BackwardBatchDX(tp, dH, touched, s, nil)
}

// BackwardBatchDX is BackwardBatch that also writes dL/dx: dX[t] is resized
// to B×In and receives the input gradient of every row at step t (the
// attribution of §6.2). A nil dX skips that matmul, which is all
// BackwardBatch does; the weight gradients are the same bytes either way.
func (l *LSTM) BackwardBatchDX(tp *BatchTape, dH []Batch, touched []bool, s *BatchGradScratch, dX []Batch) {
	hd, B, T := l.Hidden, tp.B, tp.T
	if len(dH) < T || len(touched) < T {
		panic("nn: BackwardBatch dH/touched shorter than the tape")
	}
	if dX != nil && len(dX) < T {
		panic("nn: BackwardBatchDX dX shorter than the tape")
	}
	dHA, touchedA := dH[:T], touched[:T]
	xsA, hA, cA, gA, tcA := tp.Xs[:T], tp.H[:T], tp.C[:T], tp.Gates[:T], tp.tc[:T]
	s.dh.Resize(B, hd)
	s.dhNext.Resize(B, hd)
	s.dc.Resize(B, hd)
	s.dz.Resize(B, 4*hd)
	for i := range s.dhNext.Data {
		s.dhNext.Data[i] = 0
	}
	for i := range s.dc.Data {
		s.dc.Data[i] = 0
	}
	if tp.sparse {
		tp.gwxT.Resize(tp.in, 4*hd)
		for i := range tp.gwxT.Data {
			tp.gwxT.Data[i] = 0
		}
	}
	// The recurrent dL/dh = Whᵀ·dz is MulT against Wh as stored: its
	// row-major 4H×H layout is already the transposed operand the tiled
	// kernel walks. Per element the sum is MulTransBatch's, ascending from
	// +0 and unfused, but without its zero-coefficient skip, which is
	// invisible unless a weight is non-finite (0·Inf is NaN). So the tile
	// runs only over an all-finite Wh, and needs H a multiple of 4.
	whT := Batch{Rows: l.Wh.Rows, Cols: l.Wh.Cols, Data: l.Wh.Data}
	tiled := useAVX && hd%4 == 0 && allFinite(l.Wh.Data)
	for t := T - 1; t >= 0; t-- {
		copy(s.dh.Data, s.dhNext.Data)
		if touchedA[t] {
			addAll(s.dh.Data, dHA[t].Data)
		}
		cPrev := &tp.zero
		hPrev := &tp.zero
		if t > 0 {
			cPrev = &cA[t-1]
			hPrev = &hA[t-1]
		}
		tct, gt := &tcA[t], &gA[t]
		for i := 0; i < B; i++ {
			lstmGateGrads(hd, gt.Row(i), tct.Row(i), cPrev.Row(i),
				s.dh.Row(i), s.dc.Row(i), s.dz.Row(i))
		}
		if tp.sparse {
			tp.sparseGrad(&tp.gwxT, &s.dz, t)
		} else {
			l.GWx.AddOuterBatch(&s.dz, &xsA[t])
		}
		l.GWh.AddOuterBatch(&s.dz, hPrev)
		for i := 0; i < B; i++ {
			l.GB.Add(s.dz.Row(i))
		}
		if t < len(dX) { // false for every t when dX is nil
			MulTransBatch(&s.dz, l.Wx, &dX[t])
		}
		if tiled {
			s.dz.mulTTransposed(&whT, &s.dhNext)
		} else {
			MulTransBatch(&s.dz, l.Wh, &s.dhNext)
		}
	}
	if tp.sparse {
		// The transposed scratch holds this call's full GWx contribution;
		// fold it in once. From a zero GWx this is bit-identical to the
		// dense per-step accumulation (0 + Σ terms, same term order).
		flushSparseGrad(l.GWx, &tp.gwxT)
	}
}

// allFinite reports whether no element of v is NaN or ±Inf.
func allFinite(v []float64) bool {
	for _, x := range v {
		if x-x != 0 { // NaN for NaN and ±Inf, +0 otherwise
			return false
		}
	}
	return true
}

// addAll adds src to dst element-wise; lengths must match.
func addAll(dst, src []float64) {
	if len(dst) != len(src) {
		panic("nn: addAll length mismatch")
	}
	src = src[:len(dst)]
	for i := range dst {
		dst[i] += src[i]
	}
}
