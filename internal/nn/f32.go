package nn

import "math"

// Float32 inference support. Training stays float64 end to end; at model
// load the weights are quantized once into float32 panels (panel32.go) and
// the online stream state advances in float32. The survival accounting on
// top of the model (hazard ring, window sums) remains float64 — only the
// kernel arithmetic narrows, which is where all the time goes.

// Vec32 is a dense float32 vector.
type Vec32 []float32

// NewVec32 returns a zero vector of length n.
func NewVec32(n int) Vec32 { return make(Vec32, n) }

// Zero resets every element of v to 0 in place.
func (v Vec32) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Add adds o to v element-wise in place. Panics if lengths differ.
func (v Vec32) Add(o Vec32) {
	if len(v) != len(o) {
		panic("nn: Vec32.Add length mismatch")
	}
	o = o[:len(v)]
	for i := range v {
		v[i] += o[i]
	}
}

// Widen converts v into dst (float64), reallocating when dst is too short.
func (v Vec32) Widen(dst Vec) Vec {
	if len(dst) != len(v) {
		dst = make(Vec, len(v))
	}
	dst = dst[:len(v)] // exact length: the loop body compiles check-free
	for i, x := range v {
		dst[i] = float64(x)
	}
	return dst
}

// Narrow32 converts a float64 vector into dst (float32), reallocating when
// dst is too short. It runs once per distinct input per step in the lane,
// so like the kernels it compiles with no per-element bounds checks.
func Narrow32(src Vec, dst Vec32) Vec32 {
	if len(dst) != len(src) {
		dst = make(Vec32, len(src))
	}
	dst = dst[:len(src)]
	for i, x := range src {
		dst[i] = float32(x)
	}
	return dst
}

// Batch32 is the float32 analogue of Batch: a dense row-major B×dim packing
// buffer, one row per independent stream, with storage reused across calls.
type Batch32 struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// Resize reshapes the batch to rows×cols, reusing the backing array when it
// is large enough. Contents after Resize are unspecified.
func (b *Batch32) Resize(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic("nn: Batch32.Resize with negative dimension")
	}
	n := rows * cols
	if cap(b.Data) < n {
		b.Data = make([]float32, n)
	}
	b.Data = b.Data[:n]
	b.Rows, b.Cols = rows, cols
}

// Row returns row i as a slice aliasing the batch storage.
func (b *Batch32) Row(i int) Vec32 { return Vec32(b.Data[i*b.Cols : (i+1)*b.Cols]) }

// The constants of Expf and of the gate nonlinearities, at package level
// because the vector gate kernel (lstmGates8avx) is built from the same
// values as the scalar code it is pinned to.
const (
	expLog2e = 1.4426950408889634
	expLn2Hi = 6.93147180369123816490e-01
	expLn2Lo = 1.90821492927058770002e-10
	// Adding then subtracting 1.5·2^52 rounds a float64 of this magnitude
	// to the nearest integer in two cheap additions, off the critical path
	// a Floor call would lengthen.
	expRndMagic = 6755399441055744.0
	sigmoidCap  = 18.04 // past this, (1-z)/(1+z) rounds to 1 anyway
	tanhCap     = 9.02  // 1 - tanh(9.02) < float32 epsilon: saturates to 1
)

// Expf returns e^x for float32 x. It computes in float64 (scalar float32
// and float64 arithmetic cost the same on every target we run on) with a
// degree-6 polynomial after range reduction, accurate to ~1 ulp of float32
// across the whole finite range — far below the float32 quantization noise
// the serving path already tolerates, and several times faster than
// math.Exp. The gate nonlinearities are the second-largest cost of a step
// after the matmuls, so this matters.
func Expf(x float32) float32 {
	xd := float64(x)
	if xd > 88.72283905206835 { // overflows float32
		return float32(math.Inf(1))
	}
	if xd < -87.33654475055312 { // below the float32 normal range: flush to zero
		return 0
	}
	t := xd*expLog2e + expRndMagic
	kf := t - expRndMagic
	r := (xd - kf*expLn2Hi) - kf*expLn2Lo
	// exp(r) on |r| ≤ ln2/2 by a degree-6 Taylor polynomial; the next term
	// is ≤ (ln2/2)^7/7! ≈ 1.2e-7 relative, at the float32 epsilon. Estrin
	// grouping keeps the dependency chain ~4 multiplies deep instead of
	// Horner's 12 — this function sits in the gate loop, where latency, not
	// instruction count, is what shows up.
	r2 := r * r
	lo := (1 + r) + r2*(0.5+r*(1.0/6))
	hi := 1.0/24 + r*(1.0/120) + r2*(1.0/720)
	p := lo + (r2*r2)*hi
	return float32(p * math.Float64frombits(uint64(int64(kf)+1023)<<52))
}

const f32SignBit = 1 << 31

// Sigmoid32 returns 1/(1+e^-x), computed stably for large |x| via
// 0.5·(1 + tanh(x/2)). The sign is folded in with bit operations rather
// than a branch: gate pre-activations have data-random sign, so a branch
// here mispredicts half the time and costs more than the arithmetic.
func Sigmoid32(x float32) float32 {
	ax := math.Float32frombits(math.Float32bits(x) &^ f32SignBit)
	ax = min(ax, sigmoidCap)
	z := Expf(-ax)
	r := (1 - z) / (1 + z) // tanh(|x|/2)
	r = math.Float32frombits(math.Float32bits(r) | math.Float32bits(x)&f32SignBit)
	return 0.5 + 0.5*r
}

// Tanh32 returns tanh(x) via the stable e^-2|x| form, branchless like
// Sigmoid32.
func Tanh32(x float32) float32 {
	ax := math.Float32frombits(math.Float32bits(x) &^ f32SignBit)
	ax = min(ax, tanhCap)
	t := Expf(-2 * ax)
	r := (1 - t) / (1 + t)
	return math.Float32frombits(math.Float32bits(r) | math.Float32bits(x)&f32SignBit)
}
