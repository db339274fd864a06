//go:build amd64

package nn

import "math"

// useAVX selects the AVX panel kernels when the CPU and OS both support
// 256-bit vector state. It is a variable, not a constant, so tests can
// force the portable kernel and assert bit-identical outputs.
var useAVX = hasAVX()

// hasFMA records whether math.Exp takes its FMA branch here: the CPU has
// FMA3 (with AVX, the condition math itself checks) and math has not been
// told otherwise (GODEBUG=cpu.fma=off), which the probe shows — the two
// branches round exp(−1.1099999999999999) differently. The float64 gate
// kernel transcribes that branch, so it runs only when hasFMA is set (and
// useAVX, the one switch). It is a fact about the process, not a switch:
// tests flip useAVX.
var hasFMA = hasAVX() && cpuFMA() && math.Exp(-1.1099999999999999) == 0.32955896107518906

// hasAVX reports whether AVX instructions are safe to execute: CPUID
// must advertise AVX and OSXSAVE, and XCR0 must show the OS preserving
// XMM+YMM state across context switches.
func hasAVX() bool {
	_, _, ecx, _ := cpuidex(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	return xgetbv0()&0x6 == 0x6
}

// cpuFMA reports the FMA3 bit of CPUID leaf 1. Like math's own check it
// is only meaningful together with hasAVX (FMA uses the YMM state).
func cpuFMA() bool {
	_, _, ecx, _ := cpuidex(1, 0)
	const fma = 1 << 12
	return ecx&fma != 0
}

// cpuidex executes CPUID with the given leaf/subleaf.
func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0.
func xgetbv0() uint64

// panelMul1avx computes dst[j] = Σ_c wp[c*8+j]·x[c] for j in [0,8) over
// one 8-row weight panel (wp has cols*8 floats). Multiplication and
// addition are separate instructions (no FMA) so results are bit-identical
// to panelMul1go.
//
//go:noescape
func panelMul1avx(wp *float32, x *float32, cols int, dst *float32)

// panelMul4avx is panelMul1avx for four batch rows sharing one streaming
// pass over the weight panel.
//
//go:noescape
func panelMul4avx(wp *float32, x0, x1, x2, x3 *float32, cols int, dst0, dst1, dst2, dst3 *float32)

// panelMulNZ1avx is panelMul1avx over the n > 0 columns listed at nz only:
// dst[j] = Σ_{c ∈ nz} wp[c*8+j]·x[c], in list order, unfused — bit-identical
// to panelMulNZgo. The columns are not bounds-checked.
//
//go:noescape
func panelMulNZ1avx(wp *float32, x *float32, nz *int32, n int, dst *float32)

// panelMulNZ4avx is panelMulNZ1avx against four adjacent panels, stride
// bytes apart, in one pass over the column list; dst receives their 32
// outputs contiguously.
//
//go:noescape
func panelMulNZ4avx(wp *float32, stride int, x *float32, nz *int32, n int, dst *float32)

// lstmGates8avx is lstmGates32go over units [0, n), n a positive multiple
// of 8, eight units per iteration: the three float32 adds, exp in 4-wide
// float64 with Expf's operations in Expf's order, the float32 divides, the
// sign folds and the c/h update, each the scalar code's IEEE operation on
// eight lanes, so every output bit is the scalar loop's. It uses AVX only
// (the integer work of exp's 2^k scaling is done on 128-bit halves), so
// useAVX is the one switch for every kernel. The exp omits Expf's
// overflow and underflow branches: its argument here is always in
// [-18.04, 0] or NaN, where the scalar code never takes them either.
//
//go:noescape
func lstmGates8avx(n, hd int, pre, rec, bias, h, c *float32, k *gateConsts)

// The float64 training kernels. Each gives every output element the IEEE
// operations of the Go loop it stands in for, in that loop's order, with
// the multiply and the add as separate instructions, so flipping useAVX
// moves no training byte.

// axpyavx computes dst[i] = dst[i] + a·x[i] for i in [0, n), n > 0: axpy.
//
//go:noescape
func axpyavx(dst, x *float64, a float64, n int)

// addOuter4avx computes row[c] = (((row[c] + a0·x0[c]) + a1·x1[c]) +
// a2·x2[c]) + a3·x3[c] for c in [0, n), n > 0: AddOuterBatch's 4-row tile.
//
//go:noescape
func addOuter4avx(row, x0, x1, x2, x3 *float64, a0, a1, a2, a3 float64, n int)

// mulT4avx computes, for the four batch rows x_i = x + i·cols, dst_i[r] =
// Σ_c x_i[c]·wT[c·n+r] for r in [0, n), n a positive multiple of 4, dst_i
// = dst + i·n: MulT against the transposed weights wT = wᵀ. Each output
// element is one accumulator that starts at +0 and adds its products in
// ascending c, as MulT's dot product does.
//
//go:noescape
func mulT4avx(x, wT *float64, cols, n int, dst *float64)

// mulT1avx is mulT4avx for one batch row.
//
//go:noescape
func mulT1avx(x, wT *float64, cols, n int, dst *float64)

// lstmGates4avx is lstmGatesTapeGo over units [j, n), n a multiple of 4,
// four units per iteration, each output the scalar loop's bits: the gate
// adds, math.Exp's FMA branch (exp_amd64.s, label avxfma) op for op,
// math.tanh's three branches unfused, Sigmoid's two sign branches, and
// the c/h update, with the correctly rounded VDIVPD standing in for the
// scalar divide. It stops at the first group of four in which a
// sigmoid's exp leaves the polynomial range (NaN, ±Inf, overflow or a
// denormal result) or a tanh argument is NaN, and returns that group's
// first unit (n when every group was taken): the caller runs the scalar
// loop for the group and calls again. A stopped group's c, h and tanh(c)
// are untouched; its gate values may have been written. hd is the gate
// segment length of pre, rec, bias and gates.
//
//go:noescape
func lstmGates4avx(j, n, hd int, pre, rec, bias, gates, h, c, tc *float64, k *gate64Consts) int

// adamavx is adamUpdateGo over elements [0, n), n a positive multiple of
// 4, four wide: the optional clip multiply, both moments, the bias
// corrections, the square root and the weight update, each the scalar
// loop's IEEE operation in its order, and g zeroed.
//
//go:noescape
func adamavx(w, grad, m, v *float64, n int, k *adamConsts)

// gate64Consts is the constant table lstmGates4avx reads, each value
// broadcast to one 32-byte vector. The assembly addresses the fields by
// offset: keep the order.
type gate64Consts struct {
	log2e, ln2u, ln2l, sixteenth [4]float64 // 0, 32, 64, 96
	e8, e7, e6, e5, e4, e3       [4]float64 // 128 … 288: exp's Taylor terms
	half, one, two               [4]float64 // 320, 352, 384
	sign                         [4]uint64  // 416
	kMin, kMax                   [4]float64 // 448, 480
	p0, p1, p2, q0, q1, q2       [4]float64 // 512 … 672: tanh's P and Q
	tanhMid, tanhBig, maxLog     [4]float64 // 704, 736, 768
	expBias                      [8]uint32  // 800
}

// gate64K spells each constant as exp_amd64.s and tanh.go do.
var gate64K = gate64Consts{
	log2e:     bcast4(1.4426950408889634073599246810018920),
	ln2u:      bcast4(0.69314718055966295651160180568695068359375),
	ln2l:      bcast4(0.28235290563031577122588448175013436025525412068e-12),
	sixteenth: bcast4(0.0625),

	e8: bcast4(2.4801587301587301587e-5),
	e7: bcast4(1.9841269841269841270e-4),
	e6: bcast4(1.3888888888888888889e-3),
	e5: bcast4(8.3333333333333333333e-3),
	e4: bcast4(4.1666666666666666667e-2),
	e3: bcast4(1.6666666666666666667e-1),

	half: bcast4(0.5), one: bcast4(1), two: bcast4(2),
	sign: [4]uint64{1 << 63, 1 << 63, 1 << 63, 1 << 63},
	// Exponents k outside [-1022, 1023] are where exp's scalar code
	// branches (a denormal or zero result, +Inf); NaN and ±Inf arguments
	// convert to k = -2³¹.
	kMin: bcast4(-1022), kMax: bcast4(1023),

	p0: bcast4(-9.64399179425052238628e-1),
	p1: bcast4(-9.92877231001918586564e1),
	p2: bcast4(-1.61468768441708447952e3),
	q0: bcast4(1.12811678491632931402e2),
	q1: bcast4(2.23548839060100448583e3),
	q2: bcast4(4.84406305325125486048e3),

	tanhMid: bcast4(0.625), tanhBig: bcast4(0.5 * tanhMaxLog), maxLog: bcast4(tanhMaxLog),
	expBias: [8]uint32{1023, 1023, 1023, 1023, 1023, 1023, 1023, 1023},
}

// tanhMaxLog is math.tanh's MAXLOG, log(2**127): above half of it tanh is
// ±1, so the vector kernel's exp(2|x|) never needs a larger argument.
const tanhMaxLog = 8.8029691931113054295988e+01

// gateConsts is the constant table lstmGates8avx reads, each value
// broadcast to one 32-byte vector. The assembly addresses the fields by
// offset: keep the order.
type gateConsts struct {
	log2e, magic, ln2hi, ln2lo [4]float64 // 0, 32, 64, 96
	one, half                  [4]float64 // 128, 160
	c6, c24, c120, c720        [4]float64 // 192, 224, 256, 288
	expBias                    [4]uint64  // 320
	sign                       [8]uint32  // 352
	sigCap, tanhCap            [8]float32 // 384, 416
	negTwo, one32, half32      [8]float32 // 448, 480, 512
}

func bcast4(v float64) [4]float64 { return [4]float64{v, v, v, v} }

func bcast8(v float32) [8]float32 { return [8]float32{v, v, v, v, v, v, v, v} }

// gateK spells every constant the way Expf, Sigmoid32 and Tanh32 do.
var gateK = gateConsts{
	log2e: bcast4(expLog2e), magic: bcast4(expRndMagic),
	ln2hi: bcast4(expLn2Hi), ln2lo: bcast4(expLn2Lo),
	one: bcast4(1), half: bcast4(0.5),
	c6: bcast4(1.0 / 6), c24: bcast4(1.0 / 24), c120: bcast4(1.0 / 120), c720: bcast4(1.0 / 720),
	expBias: [4]uint64{1023, 1023, 1023, 1023},
	sign: [8]uint32{f32SignBit, f32SignBit, f32SignBit, f32SignBit,
		f32SignBit, f32SignBit, f32SignBit, f32SignBit},
	sigCap: bcast8(sigmoidCap), tanhCap: bcast8(tanhCap),
	negTwo: bcast8(-2), one32: bcast8(1), half32: bcast8(0.5),
}
