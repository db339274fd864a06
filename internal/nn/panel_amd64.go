//go:build amd64

package nn

// useAVX selects the AVX panel kernels when the CPU and OS both support
// 256-bit vector state. It is a variable, not a constant, so tests can
// force the portable kernel and assert bit-identical outputs.
var useAVX = hasAVX()

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
