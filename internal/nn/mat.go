// Package nn implements the small neural-network toolkit Xatu needs:
// dense and LSTM layers, batched backpropagation through time that can
// also emit dL/dx, the mean-pool gradient, the Adam optimizer, and the
// float32 serving kernels. Input-gradient attribution is built from these
// in package core. It is written against float64 slices and the standard
// library only; the model sizes Xatu uses (a few hundred hidden units at
// most) do not justify an external tensor framework.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Vec is a dense float64 vector.
type Vec []float64

// NewVec returns a zero vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero resets every element of v to 0 in place.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Add adds o to v element-wise in place. Panics if lengths differ.
func (v Vec) Add(o Vec) {
	if len(v) != len(o) {
		panic(fmt.Sprintf("nn: Vec.Add length mismatch %d != %d", len(v), len(o)))
	}
	o = o[:len(v)] // exact length: the loop body compiles check-free
	for i := range v {
		v[i] += o[i]
	}
}

// Scale multiplies every element of v by s in place.
func (v Vec) Scale(s float64) {
	for i := range v {
		v[i] *= s
	}
}

// Dot returns the inner product of v and o. Panics if lengths differ.
func (v Vec) Dot(o Vec) float64 {
	if len(v) != len(o) {
		panic(fmt.Sprintf("nn: Vec.Dot length mismatch %d != %d", len(v), len(o)))
	}
	var s float64
	for i := range v {
		s += v[i] * o[i]
	}
	return s
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMat returns a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("nn: NewMat with negative dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (r,c).
func (m *Mat) At(r, c int) float64 { return m.Data[r*m.Cols+c] }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Mat) Row(r int) Vec { return Vec(m.Data[r*m.Cols : (r+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets all elements to 0 in place.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// AddScaled adds s*o to m element-wise in place.
func (m *Mat) AddScaled(o *Mat, s float64) {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("nn: Mat.AddScaled shape mismatch")
	}
	for i := range m.Data {
		m.Data[i] += s * o.Data[i]
	}
}

// MulVec computes m·x and stores it in dst (len dst == m.Rows). dst is
// overwritten. Panics on shape mismatch.
func (m *Mat) MulVec(x Vec, dst Vec) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("nn: MulVec shape mismatch (%dx%d)·%d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		var s float64
		for c, w := range row {
			s += w * x[c]
		}
		dst[r] = s
	}
}

// MulVecTrans computes mᵀ·x and stores it in dst (len dst == m.Cols),
// accumulating into dst (callers zero it first when needed). This is the
// hot path of backpropagation, so accumulation avoids an extra buffer.
func (m *Mat) MulVecTrans(x Vec, dst Vec) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("nn: MulVecTrans shape mismatch (%dx%d)ᵀ·%d -> %d", m.Rows, m.Cols, len(x), len(dst)))
	}
	cols := m.Cols
	for r, xr := range x {
		if xr == 0 {
			continue
		}
		row := m.Data[r*cols:][:cols]
		row = row[:len(dst)] // equal lengths: the loop body compiles check-free
		for c, w := range row {
			dst[c] += w * xr
		}
	}
}

// AddOuter accumulates the outer product a·bᵀ into m (a has len Rows, b has
// len Cols). Used for weight gradients.
func (m *Mat) AddOuter(a, b Vec) {
	if len(a) != m.Rows || len(b) != m.Cols {
		panic("nn: AddOuter shape mismatch")
	}
	cols := m.Cols
	for r, ar := range a {
		if ar == 0 {
			continue
		}
		row := m.Data[r*cols:][:cols]
		row = row[:len(b)] // equal lengths: the loop body compiles check-free
		for c, bv := range b {
			row[c] += ar * bv
		}
	}
}

// XavierInit fills m with Xavier/Glorot-uniform values using rng.
func (m *Mat) XavierInit(rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// Sigmoid returns 1/(1+e^-x), computed stably for large |x|.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}

// Softplus returns log(1+e^x), computed stably. Its output is always
// positive, which makes it Xatu's hazard-rate link function.
func Softplus(x float64) float64 {
	if x > 30 {
		return x // e^-x underflows; log(1+e^x) ≈ x
	}
	return math.Log1p(math.Exp(x))
}

// SoftplusPrime is d/dx Softplus(x) = Sigmoid(x).
func SoftplusPrime(x float64) float64 { return Sigmoid(x) }
