package nn

// MeanPoolInto downsamples the sequence x by averaging non-overlapping
// windows of k consecutive steps, writing pooled step p into row e of
// dst[p] (sequential adds in step order, one scale by the reciprocal of the
// window length; a plain copy when k ≤ 1). A trailing partial window is
// averaged over its actual length, so no input step is dropped. It returns
// the number of pooled steps, ceil(len(x)/k); dst must hold at least that
// many batches of at least e+1 rows of width len(x[t]).
func MeanPoolInto(dst []Batch, e int, x [][]float64, k int) int {
	k = max(k, 1)
	n := (len(x) + k - 1) / k
	for p := 0; p < n; p++ {
		row := dst[p].Row(e)
		if k == 1 {
			copy(row, x[p])
			continue
		}
		lo, hi := p*k, min(p*k+k, len(x))
		row.Zero()
		for t := lo; t < hi; t++ {
			row.Add(x[t])
		}
		row.Scale(1 / float64(hi-lo))
	}
	return n
}

// MeanPoolBackward distributes gradients of a mean-pooled sequence back to
// the original resolution: each input step in window w of MeanPoolInto's
// pooling receives dPooled[w]/len(w). origLen is the pre-pooling sequence
// length and k ≥ 1 (k = 1 copies). nil entries in dPooled are treated as
// zero.
func MeanPoolBackward(dPooled []Vec, k, origLen, dim int) []Vec {
	dXs := make([]Vec, origLen)
	for t := 0; t < origLen; t++ {
		dXs[t] = NewVec(dim)
	}
	for w, dp := range dPooled {
		if dp == nil {
			continue
		}
		lo := w * k
		hi := lo + k
		if hi > origLen {
			hi = origLen
		}
		if lo >= origLen {
			break
		}
		scale := 1 / float64(hi-lo)
		for t := lo; t < hi; t++ {
			for j := range dp {
				dXs[t][j] += dp[j] * scale
			}
		}
	}
	return dXs
}
