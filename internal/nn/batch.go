package nn

import "fmt"

// Batch is a dense row-major B×dim matrix holding one row per independent
// sequence, used to advance many training sequences through one shared
// weight set in a single kernel pass. It is distinct from Mat on purpose: a Mat is a weight
// tensor with gradient semantics, a Batch is a transient packing buffer
// whose backing storage is reused across calls (Resize never shrinks the
// allocation).
type Batch struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// Resize reshapes the batch to rows×cols, reusing the backing array when it
// is large enough. Contents after Resize are unspecified: callers fully
// overwrite every row they use.
func (b *Batch) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("nn: Batch.Resize with negative dimension")
	}
	n := rows * cols
	if cap(b.Data) < n {
		b.Data = make([]float64, n)
	}
	b.Data = b.Data[:n]
	b.Rows, b.Cols = rows, cols
}

// Row returns row i as a slice aliasing the batch storage.
func (b *Batch) Row(i int) Vec { return Vec(b.Data[i*b.Cols : (i+1)*b.Cols]) }

// mulTileRows is the register-blocking factor of MulT: how many batch rows
// share one load of a weight row. Four keeps every accumulator in a
// register on amd64/arm64 while still quartering weight-matrix traffic.
const mulTileRows = 4

// MulT computes dst = x · wᵀ, i.e. dst[i][r] = Σ_c w[r][c]·x[i][c], with
// dst resized to x.Rows × w.Rows. Stepping each row alone runs one
// MulVec per row and streams the whole weight matrix through cache B
// times; this kernel iterates weight rows in the outer loop, so the weights
// are streamed once per call, and blocks batch rows in tiles of mulTileRows
// so every weight load feeds four independent accumulators. Per output
// element the accumulation order is the plain left-to-right dot product of
// Mat.MulVec — a Batch of B rows yields bit-identical results to B
// independent MulVec calls, the invariant that ties the batched forward to
// the single-stream Step.
func (x *Batch) MulT(w *Mat, dst *Batch) {
	if x.Cols != w.Cols {
		panic(fmt.Sprintf("nn: MulT shape mismatch (%dx%d)·(%dx%d)ᵀ", x.Rows, x.Cols, w.Rows, w.Cols))
	}
	dst.Resize(x.Rows, w.Rows)
	cols := x.Cols
	for r := 0; r < w.Rows; r++ {
		wr := w.Data[r*w.Cols : r*w.Cols+cols]
		i := 0
		for ; i+mulTileRows <= x.Rows; i += mulTileRows {
			x0 := x.Data[i*cols : i*cols+cols]
			x1 := x.Data[(i+1)*cols : (i+1)*cols+cols]
			x2 := x.Data[(i+2)*cols : (i+2)*cols+cols]
			x3 := x.Data[(i+3)*cols : (i+3)*cols+cols]
			var s0, s1, s2, s3 float64
			for c, wv := range wr {
				s0 += wv * x0[c]
				s1 += wv * x1[c]
				s2 += wv * x2[c]
				s3 += wv * x3[c]
			}
			dst.Data[i*dst.Cols+r] = s0
			dst.Data[(i+1)*dst.Cols+r] = s1
			dst.Data[(i+2)*dst.Cols+r] = s2
			dst.Data[(i+3)*dst.Cols+r] = s3
		}
		for ; i < x.Rows; i++ {
			xi := x.Data[i*cols : i*cols+cols]
			var s float64
			for c, wv := range wr {
				s += wv * xi[c]
			}
			dst.Data[i*dst.Cols+r] = s
		}
	}
}

// mulTTransposed is MulT on the AVX kernels, against wT = wᵀ as
// transposeInto lays it out (w.Cols rows of w.Rows; w.Rows a multiple of
// 4): four batch rows share each weight load (mulT4avx), the rest go one
// at a time (mulT1avx). Both keep one accumulator per output element that
// starts at +0 and adds w[r][c]·x[i][c] in ascending c, unfused, so dst is
// bit-identical to x.MulT(w, dst). ForwardBatch calls it for W_x·x and
// W_h·h, BackwardBatchDX for the recurrent dL/dh (against Wh as stored),
// and only when useAVX is set.
func (x *Batch) mulTTransposed(wT *Batch, dst *Batch) {
	if x.Cols != wT.Rows || wT.Cols%4 != 0 {
		panic(fmt.Sprintf("nn: mulTTransposed shape mismatch (%dx%d)·(%dx%d)", x.Rows, x.Cols, wT.Rows, wT.Cols))
	}
	cols, n := x.Cols, wT.Cols
	dst.Resize(x.Rows, n)
	i := 0
	for ; i+mulTileRows <= x.Rows; i += mulTileRows {
		mulT4avx(&x.Data[i*cols], &wT.Data[0], cols, n, &dst.Data[i*n])
	}
	for ; i < x.Rows; i++ {
		mulT1avx(&x.Data[i*cols], &wT.Data[0], cols, n, &dst.Data[i*n])
	}
}
