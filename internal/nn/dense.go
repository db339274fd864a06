package nn

import "math/rand"

// Param is a named weight matrix paired with its gradient accumulator.
// Optimizers walk a slice of Params; layers expose their weights this way.
type Param struct {
	Name string
	W    *Mat
	G    *Mat
}

// Dense is a fully connected layer y = W·x + b.
type Dense struct {
	In, Out int
	W       *Mat // Out×In
	B       Vec  // Out
	GW      *Mat
	GB      Vec
}

// NewDense returns a Dense layer with Xavier-initialized weights.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:  NewMat(out, in),
		B:  NewVec(out),
		GW: NewMat(out, in),
		GB: NewVec(out),
	}
	d.W.XavierInit(rng)
	return d
}

// Params exposes the layer's weights for optimization.
func (d *Dense) Params() []Param {
	return []Param{
		{Name: "dense.W", W: d.W, G: d.GW},
		{Name: "dense.b", W: vecAsMat(d.B), G: vecAsMat(d.GB)},
	}
}

// ForwardInto computes y = W·x + b into the caller-owned dst (len Out),
// allocating nothing: the single-stream form the online detector uses.
func (d *Dense) ForwardInto(x, dst Vec) {
	d.W.MulVec(x, dst)
	dst.Add(d.B)
}

// ForwardBatch computes dst = xs·Wᵀ + b row-wise: row i of dst is the
// layer output for row i of xs. dst is resized to xs.Rows × Out. Per row
// the dot-product and bias-add order match ForwardInto exactly, so batched
// head evaluation is bit-identical to per-stream evaluation.
func (d *Dense) ForwardBatch(xs, dst *Batch) {
	xs.MulT(d.W, dst)
	for i := 0; i < dst.Rows; i++ {
		dst.Row(i).Add(d.B)
	}
}

// ZeroGrad clears accumulated gradients.
func (d *Dense) ZeroGrad() {
	d.GW.Zero()
	d.GB.Zero()
}

// vecAsMat views a Vec as a 1×n matrix sharing storage, so optimizers can
// treat biases uniformly with weight matrices.
func vecAsMat(v Vec) *Mat { return &Mat{Rows: 1, Cols: len(v), Data: v} }
