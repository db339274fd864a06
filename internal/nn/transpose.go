package nn

// Once-per-chunk transpose helpers for the sparse training path and the
// AVX forward products (ForwardBatch transposes Wx and Wh). Both walk
// one side of the matrix with a strided scatter/gather, so they carry a
// per-element bounds check the compiler cannot eliminate — which is why
// they live outside the `make bce`-gated kernel files, and why they are
// marked noinline so the check is not inlined into a gated caller. The cost
// is small: each runs once per BackwardBatch/ForwardBatch call over |Wx|
// (and |Wh|) elements, amortized over the T timesteps of hot kernel work.

// transposeInto fills dst (resized to w.Cols × w.Rows) with wᵀ, letting
// the sparse and the AVX kernels walk weight columns contiguously.
//
//go:noinline
func transposeInto(dst *Batch, w *Mat) {
	dst.Resize(w.Cols, w.Rows)
	rows, cols := w.Rows, w.Cols
	r := 0
	// Four source rows at a time: each destination row gets four adjacent
	// elements per visit instead of one, a quarter of the strided writes.
	for ; r+4 <= rows; r += 4 {
		w0 := w.Data[r*cols:][:cols]
		w1 := w.Data[(r+1)*cols:][:cols]
		w2 := w.Data[(r+2)*cols:][:cols]
		w3 := w.Data[(r+3)*cols:][:cols]
		for c, v := range w0 {
			d := dst.Data[c*rows+r:][:4]
			d[0], d[1], d[2], d[3] = v, w1[c], w2[c], w3[c]
		}
	}
	for ; r < rows; r++ {
		wr := w.Data[r*cols:][:cols]
		for c, v := range wr {
			dst.Data[c*rows+r] = v
		}
	}
}

// flushSparseGrad adds the transposed gradient scratch into g (the layer's
// GWx): g[r][c] += gwxT[c][r]. Zero scratch entries are skipped — features
// absent from the whole chunk leave their gradient column untouched, just
// as the dense path's zero products do.
//
//go:noinline
func flushSparseGrad(g *Mat, gwxT *Batch) {
	rows, cols := g.Rows, g.Cols
	if gwxT.Rows != cols || gwxT.Cols != rows {
		panic("nn: flushSparseGrad shape mismatch")
	}
	for c := 0; c < cols; c++ {
		grow := gwxT.Data[c*rows:][:rows]
		for r, v := range grow {
			if v == 0 {
				continue
			}
			g.Data[r*cols+c] += v
		}
	}
}
