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
// as the dense path's zero products do (and a −0 gradient stays −0, which
// adding +0 would not keep).
//
//go:noinline
func flushSparseGrad(g *Mat, gwxT *Batch) {
	rows, cols := g.Rows, g.Cols
	if gwxT.Rows != cols || gwxT.Cols != rows {
		panic("nn: flushSparseGrad shape mismatch")
	}
	c := 0
	// Four scratch rows at a time, as transposeInto reads four source rows:
	// each gradient row gets four adjacent elements per visit.
	for ; c+4 <= cols; c += 4 {
		s0 := gwxT.Data[c*rows:][:rows]
		s1 := gwxT.Data[(c+1)*rows:][:rows]
		s2 := gwxT.Data[(c+2)*rows:][:rows]
		s3 := gwxT.Data[(c+3)*rows:][:rows]
		for r, v0 := range s0 {
			v1, v2, v3 := s1[r], s2[r], s3[r]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			d := g.Data[r*cols+c:][:4]
			if v0 != 0 {
				d[0] += v0
			}
			if v1 != 0 {
				d[1] += v1
			}
			if v2 != 0 {
				d[2] += v2
			}
			if v3 != 0 {
				d[3] += v3
			}
		}
	}
	for ; c < cols; c++ {
		grow := gwxT.Data[c*rows:][:rows]
		for r, v := range grow {
			if v == 0 {
				continue
			}
			g.Data[r*cols+c] += v
		}
	}
}
