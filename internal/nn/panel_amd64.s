//go:build amd64

#include "textflag.h"

// func cpuidex(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint64
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET

// func panelMul1avx(wp *float32, x *float32, cols int, dst *float32)
//
// One 8-row weight panel times one input row: dst[j] = Σ_c wp[c*8+j]·x[c].
// The multiply and add are separate (unfused) instructions so each output
// lane is the same strict ascending-c scalar chain panelMul1go computes,
// keeping the two kernels bit-identical.
TEXT ·panelMul1avx(SB), NOSPLIT, $0-32
	MOVQ wp+0(FP), SI
	MOVQ x+8(FP), DX
	MOVQ cols+16(FP), CX
	MOVQ dst+24(FP), DI
	VXORPS Y0, Y0, Y0
	TESTQ CX, CX
	JLE  done1
loop1:
	VMOVUPS      (SI), Y1
	VBROADCASTSS (DX), Y2
	VMULPS       Y1, Y2, Y2
	VADDPS       Y2, Y0, Y0
	ADDQ         $32, SI
	ADDQ         $4, DX
	DECQ         CX
	JNZ          loop1
done1:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func panelMul4avx(wp *float32, x0, x1, x2, x3 *float32, cols int,
//                   dst0, dst1, dst2, dst3 *float32)
//
// Four batch rows share one streaming pass over the weight panel. Each
// row's accumulator is an independent dependency chain, so the four rows
// hide the VADDPS latency that bit-exactness forbids unrolling away
// within a single row.
TEXT ·panelMul4avx(SB), NOSPLIT, $0-80
	MOVQ wp+0(FP), SI
	MOVQ x0+8(FP), R8
	MOVQ x1+16(FP), R9
	MOVQ x2+24(FP), R10
	MOVQ x3+32(FP), R11
	MOVQ cols+40(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ CX, CX
	JLE  done4
loop4:
	VMOVUPS      (SI), Y4
	VBROADCASTSS (R8), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	VBROADCASTSS (R9), Y6
	VMULPS       Y4, Y6, Y6
	VADDPS       Y6, Y1, Y1
	VBROADCASTSS (R10), Y7
	VMULPS       Y4, Y7, Y7
	VADDPS       Y7, Y2, Y2
	VBROADCASTSS (R11), Y8
	VMULPS       Y4, Y8, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $32, SI
	ADDQ         $4, R8
	ADDQ         $4, R9
	ADDQ         $4, R10
	ADDQ         $4, R11
	DECQ         CX
	JNZ          loop4
done4:
	MOVQ    dst0+48(FP), DI
	VMOVUPS Y0, (DI)
	MOVQ    dst1+56(FP), DI
	VMOVUPS Y1, (DI)
	MOVQ    dst2+64(FP), DI
	VMOVUPS Y2, (DI)
	MOVQ    dst3+72(FP), DI
	VMOVUPS Y3, (DI)
	VZEROUPPER
	RET

// func panelMulNZ1avx(wp *float32, x *float32, nz *int32, n int, dst *float32)
//
// panelMul1avx over the n > 0 listed columns: for each c in nz, in order,
// acc += wp[c*8 : c*8+8] · x[c], multiply and add unfused.
TEXT ·panelMulNZ1avx(SB), NOSPLIT, $0-40
	MOVQ wp+0(FP), SI
	MOVQ x+8(FP), DX
	MOVQ nz+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ dst+32(FP), DI
	VXORPS Y0, Y0, Y0
loopnz1:
	MOVLQSX      (BX), AX
	VBROADCASTSS (DX)(AX*4), Y2
	SHLQ         $5, AX
	VMULPS       (SI)(AX*1), Y2, Y2
	VADDPS       Y2, Y0, Y0
	ADDQ         $4, BX
	DECQ         CX
	JNZ          loopnz1
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func panelMulNZ4avx(wp *float32, stride int, x *float32, nz *int32, n int, dst *float32)
//
// One input row against four adjacent panels (stride bytes apart): one
// index load and one broadcast per listed column feed four independent
// accumulator chains, which is what hides the VADDPS latency that
// bit-exactness forbids unrolling away within a single chain.
TEXT ·panelMulNZ4avx(SB), NOSPLIT, $0-48
	MOVQ wp+0(FP), SI
	MOVQ stride+8(FP), R8
	MOVQ x+16(FP), DX
	MOVQ nz+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ dst+40(FP), DI
	LEAQ (SI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
loopnz4:
	MOVLQSX      (BX), AX
	VBROADCASTSS (DX)(AX*4), Y4
	SHLQ         $5, AX
	VMULPS       (SI)(AX*1), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       (R9)(AX*1), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       (R10)(AX*1), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       (R11)(AX*1), Y4, Y8
	VADDPS       Y8, Y3, Y3
	ADDQ         $4, BX
	DECQ         CX
	JNZ          loopnz4
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VZEROUPPER
	RET

// The gate kernel. DX points at a gateConsts table (panel_amd64.go gives
// the offsets); Y12 holds exp's rounding constant, Y13/Y14 the tanh and
// sigmoid clamps, Y15 the float32 sign mask.
//
// EXP4 is Expf on four float32 lanes, computed in float64 with Expf's
// operations in Expf's order:
//	t  = xd*log2e + magic;  kf = t - magic
//	r  = (xd - kf*ln2hi) - kf*ln2lo;  r2 = r*r
//	lo = (1 + r) + r2*(0.5 + r*(1/6))
//	hi = (1/24 + r*(1/120)) + r2*(1/720)
//	p  = lo + (r2*r2)*hi
// and 2^k taken from the low mantissa bits of t, where the rounding
// constant leaves k in two's complement: (bits(t) + 1023) << 52 keeps
// only k + 1023 in the exponent field, which is what Expf builds from
// int64(kf). That integer add and shift run on the two 128-bit halves so
// the kernel needs AVX alone.
#define EXP4(IN, OUT) \
	VCVTPS2PD    IN, Y2;         \
	VMULPD       0(DX), Y2, Y3;  \
	VADDPD       Y12, Y3, Y3;    \
	VSUBPD       Y12, Y3, Y4;    \
	VMULPD       64(DX), Y4, Y5; \
	VSUBPD       Y5, Y2, Y5;     \
	VMULPD       96(DX), Y4, Y4; \
	VSUBPD       Y4, Y5, Y5;     \
	VMULPD       Y5, Y5, Y4;     \
	VMULPD       192(DX), Y5, Y6; \
	VADDPD       160(DX), Y6, Y6; \
	VMULPD       Y6, Y4, Y6;     \
	VADDPD       128(DX), Y5, Y7; \
	VADDPD       Y6, Y7, Y6;     \
	VMULPD       256(DX), Y5, Y7; \
	VADDPD       224(DX), Y7, Y7; \
	VMULPD       288(DX), Y4, Y2; \
	VADDPD       Y2, Y7, Y7;     \
	VMULPD       Y4, Y4, Y4;     \
	VMULPD       Y7, Y4, Y4;     \
	VADDPD       Y4, Y6, Y6;     \
	VEXTRACTF128 $1, Y3, X2;     \
	VPADDQ       320(DX), X3, X3; \
	VPSLLQ       $52, X3, X3;    \
	VPADDQ       320(DX), X2, X2; \
	VPSLLQ       $52, X2, X2;    \
	VINSERTF128  $1, X2, Y3, Y3; \
	VMULPD       Y3, Y6, Y6;     \
	VCVTPD2PSY   Y6, OUT

// EXP8: Y0 = Expf(Y0) on eight lanes, as two EXP4 halves.
#define EXP8 \
	VEXTRACTF128 $1, Y0, X8;     \
	EXP4(X0, X9);                \
	EXP4(X8, X8);                \
	VINSERTF128  $1, X8, Y9, Y0

// RATIO8: Y0 = (1 - Y0)/(1 + Y0) with the sign bits saved in Y10 folded
// back in — the tail Sigmoid32 and Tanh32 share.
#define RATIO8 \
	VMOVUPS 480(DX), Y1;         \
	VSUBPS  Y0, Y1, Y2;          \
	VADDPS  Y0, Y1, Y1;          \
	VDIVPS  Y1, Y2, Y0;          \
	VORPS   Y10, Y0, Y0

// SIGMOID8: Y0 = Sigmoid32(Y0). VMINPS returns its second source, |x|,
// when that is NaN, as the scalar min does; the negation is a sign flip,
// as the scalar -ax is.
#define SIGMOID8 \
	VANDPS  Y15, Y0, Y10;        \
	VANDNPS Y0, Y15, Y0;         \
	VMINPS  Y0, Y14, Y0;         \
	VXORPS  Y15, Y0, Y0;         \
	EXP8;                        \
	RATIO8;                      \
	VMULPS  512(DX), Y0, Y0;     \
	VADDPS  512(DX), Y0, Y0

// TANH8: Y0 = Tanh32(Y0); -2*ax is a multiply, as in the scalar code.
#define TANH8 \
	VANDPS  Y15, Y0, Y10;        \
	VANDNPS Y0, Y15, Y0;         \
	VMINPS  Y0, Y13, Y0;         \
	VMULPS  448(DX), Y0, Y0;     \
	EXP8;                        \
	RATIO8

// PREACT: Y0 = (pre + rec) + bias at byte offset OFF of the three rows.
#define PREACT(OFF) \
	VMOVUPS (SI)(OFF*1), Y0;     \
	VADDPS  (DI)(OFF*1), Y0, Y0; \
	VADDPS  (BX)(OFF*1), Y0, Y0

// func lstmGates8avx(n, hd int, pre, rec, bias, h, c *float32, k *gateConsts)
//
// lstmGates32go over units [0, n), n a positive multiple of 8. R8..R11 are
// the byte offsets of the current eight units in the i, f, g and o gate
// segments (R8 also indexes h and c).
TEXT ·lstmGates8avx(SB), NOSPLIT, $0-64
	MOVQ n+0(FP), CX
	MOVQ hd+8(FP), R9
	MOVQ pre+16(FP), SI
	MOVQ rec+24(FP), DI
	MOVQ bias+32(FP), BX
	MOVQ h+40(FP), R12
	MOVQ c+48(FP), R13
	MOVQ k+56(FP), DX
	SHRQ $3, CX
	SHLQ $2, R9
	XORQ R8, R8
	LEAQ (R9)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	VMOVUPS 32(DX), Y12
	VMOVUPS 416(DX), Y13
	VMOVUPS 384(DX), Y14
	VMOVUPS 352(DX), Y15
loopgates:
	PREACT(R8)
	SIGMOID8
	VMOVAPS Y0, Y11             // input gate
	PREACT(R10)
	TANH8
	VMULPS  Y0, Y11, Y11        // gi*gg
	PREACT(R9)
	SIGMOID8
	VMULPS  (R13)(R8*1), Y0, Y0 // gf*c
	VADDPS  Y11, Y0, Y0
	VMOVUPS Y0, (R13)(R8*1)     // c = gf*c + gi*gg
	TANH8
	VMOVAPS Y0, Y11             // tanh(c)
	PREACT(R11)
	SIGMOID8
	VMULPS  Y11, Y0, Y0
	VMOVUPS Y0, (R12)(R8*1)     // h = go*tanh(c)
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, R11
	DECQ    CX
	JNZ     loopgates
	VZEROUPPER
	RET

// The float64 training kernels. Every output element gets the Go loop's
// operations in the Go loop's order: each product rounds on its own
// (VMULPD), then joins the sum (VADDPD) — never fused.

// func axpyavx(dst, x *float64, a float64, n int)
//
// dst[i] = dst[i] + a·x[i] for i in [0, n), n > 0: eight elements per
// iteration, then four, then one at a time.
TEXT ·axpyavx(SB), NOSPLIT, $0-32
	MOVQ         dst+0(FP), DI
	MOVQ         x+8(FP), SI
	VBROADCASTSD a+16(FP), Y0
	MOVQ         n+24(FP), CX
axpy8:
	CMPQ    CX, $8
	JLT     axpy4
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMOVUPD (DI), Y3
	VMOVUPD 32(DI), Y4
	VADDPD  Y1, Y3, Y3
	VADDPD  Y2, Y4, Y4
	VMOVUPD Y3, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX
	JMP     axpy8
axpy4:
	CMPQ    CX, $4
	JLT     axpy1
	VMULPD  (SI), Y0, Y1
	VMOVUPD (DI), Y3
	VADDPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
axpy1:
	TESTQ  CX, CX
	JZ     axpydone
	VMULSD (SI), X0, X1
	VMOVSD (DI), X3
	VADDSD X1, X3, X3
	VMOVSD X3, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    axpy1
axpydone:
	VZEROUPPER
	RET

// func addOuter4avx(row, x0, x1, x2, x3 *float64, a0, a1, a2, a3 float64, n int)
//
// row[c] = (((row[c] + a0·x0[c]) + a1·x1[c]) + a2·x2[c]) + a3·x3[c] for c
// in [0, n), n > 0: the four adds in that order per element, eight
// elements per iteration, then four, then one at a time.
TEXT ·addOuter4avx(SB), NOSPLIT, $0-80
	MOVQ         row+0(FP), DI
	MOVQ         x0+8(FP), SI
	MOVQ         x1+16(FP), R8
	MOVQ         x2+24(FP), R9
	MOVQ         x3+32(FP), R10
	VBROADCASTSD a0+40(FP), Y0
	VBROADCASTSD a1+48(FP), Y1
	VBROADCASTSD a2+56(FP), Y2
	VBROADCASTSD a3+64(FP), Y3
	MOVQ         n+72(FP), CX
	XORQ         AX, AX
outer8:
	CMPQ    CX, $8
	JLT     outer4
	VMOVUPD (DI)(AX*1), Y4
	VMOVUPD 32(DI)(AX*1), Y5
	VMULPD  (SI)(AX*1), Y0, Y6
	VMULPD  32(SI)(AX*1), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R8)(AX*1), Y1, Y6
	VMULPD  32(R8)(AX*1), Y1, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R9)(AX*1), Y2, Y6
	VMULPD  32(R9)(AX*1), Y2, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R10)(AX*1), Y3, Y6
	VMULPD  32(R10)(AX*1), Y3, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMOVUPD Y4, (DI)(AX*1)
	VMOVUPD Y5, 32(DI)(AX*1)
	ADDQ    $64, AX
	SUBQ    $8, CX
	JMP     outer8
outer4:
	CMPQ    CX, $4
	JLT     outer1
	VMOVUPD (DI)(AX*1), Y4
	VMULPD  (SI)(AX*1), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R8)(AX*1), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R9)(AX*1), Y2, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R10)(AX*1), Y3, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD Y4, (DI)(AX*1)
	ADDQ    $32, AX
	SUBQ    $4, CX
outer1:
	TESTQ  CX, CX
	JZ     outerdone
	VMOVSD (DI)(AX*1), X4
	VMULSD (SI)(AX*1), X0, X6
	VADDSD X6, X4, X4
	VMULSD (R8)(AX*1), X1, X6
	VADDSD X6, X4, X4
	VMULSD (R9)(AX*1), X2, X6
	VADDSD X6, X4, X4
	VMULSD (R10)(AX*1), X3, X6
	VADDSD X6, X4, X4
	VMOVSD X4, (DI)(AX*1)
	ADDQ   $8, AX
	DECQ   CX
	JMP    outer1
outerdone:
	VZEROUPPER
	RET

// MT4(W, X, ACC): ACC += broadcast(*X) · W, multiply and add unfused.
#define MT4(W, X, ACC) \
	VBROADCASTSD X, Y10; \
	VMULPD       W, Y10, Y11; \
	VADDPD       Y11, ACC, ACC

// func mulT4avx(x, wT *float64, cols, n int, dst *float64)
//
// Four batch rows (x + i·cols) against wT (cols rows of n): per pass over
// the cols rows of wT, eight outputs of each batch row — eight independent
// accumulator chains sharing two weight loads; a last four outputs, when
// n is not a multiple of 8, take one vector per row. Every accumulator
// starts at +0 and adds its products in ascending c.
TEXT ·mulT4avx(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ wT+8(FP), BX
	MOVQ cols+16(FP), R12
	MOVQ n+24(FP), R13
	MOVQ dst+32(FP), DI
	MOVQ R12, R8
	SHLQ $3, R8             // x row stride, bytes
	MOVQ R13, R14
	SHLQ $3, R14            // wT and dst row stride, bytes
	LEAQ (SI)(R8*1), R9
	LEAQ (R9)(R8*1), R10
	LEAQ (R10)(R8*1), R11
mt4w8:
	CMPQ   R13, $8
	JLT    mt4w4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   BX, DX
	XORQ   AX, AX
	MOVQ   R12, CX
	TESTQ  CX, CX
	JZ     mt4s8
mt4l8:
	VMOVUPD (DX), Y8
	VMOVUPD 32(DX), Y9
	MT4(Y8, (SI)(AX*1), Y0)
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y1, Y1
	MT4(Y8, (R9)(AX*1), Y2)
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y3, Y3
	MT4(Y8, (R10)(AX*1), Y4)
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y5, Y5
	MT4(Y8, (R11)(AX*1), Y6)
	VMULPD  Y9, Y10, Y12
	VADDPD  Y12, Y7, Y7
	ADDQ    R14, DX
	ADDQ    $8, AX
	DECQ    CX
	JNZ     mt4l8
mt4s8:
	MOVQ    DI, DX
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    R14, DX
	VMOVUPD Y2, (DX)
	VMOVUPD Y3, 32(DX)
	ADDQ    R14, DX
	VMOVUPD Y4, (DX)
	VMOVUPD Y5, 32(DX)
	ADDQ    R14, DX
	VMOVUPD Y6, (DX)
	VMOVUPD Y7, 32(DX)
	ADDQ    $64, BX
	ADDQ    $64, DI
	SUBQ    $8, R13
	JMP     mt4w8
mt4w4:
	TESTQ  R13, R13
	JZ     mt4done
	VXORPD Y0, Y0, Y0
	VXORPD Y2, Y2, Y2
	VXORPD Y4, Y4, Y4
	VXORPD Y6, Y6, Y6
	MOVQ   BX, DX
	XORQ   AX, AX
	MOVQ   R12, CX
	TESTQ  CX, CX
	JZ     mt4s4
mt4l4:
	VMOVUPD (DX), Y8
	MT4(Y8, (SI)(AX*1), Y0)
	MT4(Y8, (R9)(AX*1), Y2)
	MT4(Y8, (R10)(AX*1), Y4)
	MT4(Y8, (R11)(AX*1), Y6)
	ADDQ    R14, DX
	ADDQ    $8, AX
	DECQ    CX
	JNZ     mt4l4
mt4s4:
	MOVQ    DI, DX
	VMOVUPD Y0, (DX)
	ADDQ    R14, DX
	VMOVUPD Y2, (DX)
	ADDQ    R14, DX
	VMOVUPD Y4, (DX)
	ADDQ    R14, DX
	VMOVUPD Y6, (DX)
mt4done:
	VZEROUPPER
	RET

// func mulT1avx(x, wT *float64, cols, n int, dst *float64)
//
// mulT4avx for one batch row: sixteen outputs (four chains) per pass, then
// four at a time.
TEXT ·mulT1avx(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ wT+8(FP), BX
	MOVQ cols+16(FP), R12
	MOVQ n+24(FP), R13
	MOVQ dst+32(FP), DI
	MOVQ R13, R14
	SHLQ $3, R14            // wT row stride, bytes
mt1w16:
	CMPQ   R13, $16
	JLT    mt1w4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ   BX, DX
	XORQ   AX, AX
	MOVQ   R12, CX
	TESTQ  CX, CX
	JZ     mt1s16
mt1l16:
	MT4((DX), (SI)(AX*1), Y0)
	VMULPD 32(DX), Y10, Y12
	VADDPD Y12, Y1, Y1
	VMULPD 64(DX), Y10, Y13
	VADDPD Y13, Y2, Y2
	VMULPD 96(DX), Y10, Y14
	VADDPD Y14, Y3, Y3
	ADDQ   R14, DX
	ADDQ   $8, AX
	DECQ   CX
	JNZ    mt1l16
mt1s16:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, BX
	ADDQ    $128, DI
	SUBQ    $16, R13
	JMP     mt1w16
mt1w4:
	CMPQ   R13, $4
	JLT    mt1done
	VXORPD Y0, Y0, Y0
	MOVQ   BX, DX
	XORQ   AX, AX
	MOVQ   R12, CX
	TESTQ  CX, CX
	JZ     mt1s4
mt1l4:
	MT4((DX), (SI)(AX*1), Y0)
	ADDQ R14, DX
	ADDQ $8, AX
	DECQ CX
	JNZ  mt1l4
mt1s4:
	VMOVUPD Y0, (DI)
	ADDQ    $32, BX
	ADDQ    $32, DI
	SUBQ    $4, R13
	JMP     mt1w4
mt1done:
	VZEROUPPER
	RET

// The float64 gate kernel. DX points at a gate64Consts table
// (panel_amd64.go gives the offsets); Y13 holds the sign mask, Y14 zero
// and Y15 the lanes that must go to the scalar loop.
//
// EXP64: Y1 = math.Exp(Y1) on four lanes, exp_amd64.s's avxfma branch op
// for op: the same FMAs where it fuses, the same separate multiply and add
// where it does not, k rounded by the MXCSR mode as CVTSD2SL rounds it,
// and the result scaled by 2^k built from k + 1023 (on the two 128-bit
// halves, so the integer work needs AVX alone). Y3 keeps k as a float64
// for the caller's range check. Clobbers Y2, Y4 and Y6.
#define EXP64 \
	VMULPD       0(DX), Y1, Y2;    \
	VCVTPD2DQY   Y2, X2;           \
	VCVTDQ2PD    X2, Y3;           \
	VFNMADD231PD 32(DX), Y3, Y1;   \
	VFNMADD231PD 64(DX), Y3, Y1;   \
	VMULPD       96(DX), Y1, Y1;   \
	VMOVUPD      128(DX), Y4;      \
	VFMADD213PD  160(DX), Y1, Y4;  \
	VFMADD213PD  192(DX), Y1, Y4;  \
	VFMADD213PD  224(DX), Y1, Y4;  \
	VFMADD213PD  256(DX), Y1, Y4;  \
	VFMADD213PD  288(DX), Y1, Y4;  \
	VFMADD213PD  320(DX), Y1, Y4;  \
	VFMADD213PD  352(DX), Y1, Y4;  \
	VMULPD       Y4, Y1, Y1;       \
	VADDPD       384(DX), Y1, Y4;  \
	VMULPD       Y4, Y1, Y1;       \
	VADDPD       384(DX), Y1, Y4;  \
	VMULPD       Y4, Y1, Y1;       \
	VADDPD       384(DX), Y1, Y4;  \
	VMULPD       Y4, Y1, Y1;       \
	VADDPD       384(DX), Y1, Y4;  \
	VFMADD213PD  352(DX), Y4, Y1;  \
	VPADDD       800(DX), X2, X2;  \
	VPUNPCKHDQ   X14, X2, X6;      \
	VPUNPCKLDQ   X14, X2, X2;      \
	VPSLLQ       $52, X2, X2;      \
	VPSLLQ       $52, X6, X6;      \
	VINSERTF128  $1, X6, Y2, Y2;   \
	VMULPD       Y2, Y1, Y1

// SIG64: Y0 = Sigmoid(Y0). Lanes with x >= 0 take exp(-x) and 1/(1+z),
// the others exp(x) and z/(1+z); a lane whose k is out of [-1022, 1023]
// (exp's scalar branches, NaN and ±Inf included) is marked in Y15.
// Clobbers Y1-Y7.
#define SIG64 \
	VCMPPD    $13, Y14, Y0, Y5;    \
	VANDPD    Y13, Y5, Y1;         \
	VXORPD    Y1, Y0, Y1;          \
	EXP64;                         \
	VCMPPD    $1, 448(DX), Y3, Y6; \
	VORPD     Y6, Y15, Y15;        \
	VCMPPD    $14, 480(DX), Y3, Y6; \
	VORPD     Y6, Y15, Y15;        \
	VADDPD    352(DX), Y1, Y6;     \
	VBLENDVPD Y5, 352(DX), Y1, Y7; \
	VDIVPD    Y6, Y7, Y0

// TANH64: Y0 = math.Tanh(Y0), its three branches computed on every lane
// and blended: |x| > MAXLOG/2 gives ±1; |x| >= 0.625 gives 1 - 2/(e^2|x|
// + 1) with x's sign (exp's argument clamped to MAXLOG, which no lane of
// this branch exceeds); the rest the rational polynomial, and x itself
// when x is ±0. A NaN lane is marked in Y15. Clobbers Y1-Y9.
#define TANH64 \
	VCMPPD    $3, Y0, Y0, Y6;      \
	VORPD     Y6, Y15, Y15;        \
	VANDNPD   Y0, Y13, Y8;         \
	VANDPD    Y13, Y0, Y9;         \
	VADDPD    Y8, Y8, Y1;          \
	VMINPD    768(DX), Y1, Y1;     \
	EXP64;                         \
	VADDPD    352(DX), Y1, Y1;     \
	VMOVUPD   384(DX), Y2;         \
	VDIVPD    Y1, Y2, Y1;          \
	VMOVUPD   352(DX), Y2;         \
	VSUBPD    Y1, Y2, Y1;          \
	VORPD     Y9, Y1, Y1;          \
	VMULPD    Y0, Y0, Y2;          \
	VMULPD    512(DX), Y2, Y3;     \
	VADDPD    544(DX), Y3, Y3;     \
	VMULPD    Y2, Y3, Y3;          \
	VADDPD    576(DX), Y3, Y3;     \
	VADDPD    608(DX), Y2, Y4;     \
	VMULPD    Y2, Y4, Y4;          \
	VADDPD    640(DX), Y4, Y4;     \
	VMULPD    Y2, Y4, Y4;          \
	VADDPD    672(DX), Y4, Y4;     \
	VMULPD    Y2, Y0, Y2;          \
	VMULPD    Y3, Y2, Y2;          \
	VDIVPD    Y4, Y2, Y2;          \
	VADDPD    Y2, Y0, Y2;          \
	VCMPPD    $13, 704(DX), Y8, Y3; \
	VBLENDVPD Y3, Y1, Y2, Y2;      \
	VCMPPD    $14, 736(DX), Y8, Y3; \
	VORPD     352(DX), Y9, Y4;     \
	VBLENDVPD Y3, Y4, Y2, Y2;      \
	VCMPPD    $0, Y14, Y0, Y3;     \
	VBLENDVPD Y3, Y0, Y2, Y0

// PREACT64(P, R, B): Y0 = (pre + rec) + bias for the four units at the
// three operands, one gate segment of each row.
#define PREACT64(P, R, B) \
	VMOVUPD P, Y0;                 \
	VADDPD  R, Y0, Y0;             \
	VADDPD  B, Y0, Y0

// func lstmGates4avx(j, n, hd int, pre, rec, bias, gates, h, c, tc *float64, k *gate64Consts) int
//
// lstmGatesTapeGo over units [j, n), four per iteration. Every pointer
// advances 32 bytes a group; AX is the gate segment stride (hd·8 bytes)
// and R9 three of them. A group with a marked lane stores no c, h or
// tanh(c) and its first unit is returned.
TEXT ·lstmGates4avx(SB), NOSPLIT, $0-96
	MOVQ j+0(FP), R8
	MOVQ n+8(FP), CX
	MOVQ hd+16(FP), AX
	MOVQ pre+24(FP), SI
	MOVQ rec+32(FP), DI
	MOVQ bias+40(FP), BX
	MOVQ gates+48(FP), R12
	MOVQ h+56(FP), R13
	MOVQ c+64(FP), R14
	MOVQ tc+72(FP), R11
	MOVQ k+80(FP), DX
	SUBQ R8, CX
	SHRQ $2, CX             // groups left
	MOVQ R8, R10
	SHLQ $3, R10            // byte offset of unit j
	ADDQ R10, SI
	ADDQ R10, DI
	ADDQ R10, BX
	ADDQ R10, R12
	ADDQ R10, R13
	ADDQ R10, R14
	ADDQ R10, R11
	SHLQ $3, AX
	LEAQ (AX)(AX*2), R9
	VMOVUPD 416(DX), Y13
	VXORPD  Y14, Y14, Y14
	TESTQ   CX, CX
	JLE     g4done
g4loop:
	VXORPD  Y15, Y15, Y15
	PREACT64((SI), (DI), (BX))
	SIG64
	VMOVUPD Y0, (R12)           // i
	VMOVAPD Y0, Y10
	PREACT64((SI)(AX*2), (DI)(AX*2), (BX)(AX*2))
	TANH64
	VMOVUPD Y0, (R12)(AX*2)     // g
	VMULPD  Y0, Y10, Y10        // gi*gg
	PREACT64((SI)(AX*1), (DI)(AX*1), (BX)(AX*1))
	SIG64
	VMOVUPD Y0, (R12)(AX*1)     // f
	VMULPD  (R14), Y0, Y11      // gf*c
	VADDPD  Y10, Y11, Y12       // c = gf*c + gi*gg
	VMOVAPD Y12, Y0
	TANH64
	VMOVAPD Y0, Y11             // tanh(c)
	PREACT64((SI)(R9*1), (DI)(R9*1), (BX)(R9*1))
	SIG64
	VMOVUPD Y0, (R12)(R9*1)     // o
	VMULPD  Y11, Y0, Y0         // h = go*tanh(c)
	VMOVMSKPD Y15, R10
	TESTQ   R10, R10
	JNZ     g4done
	VMOVUPD Y12, (R14)
	VMOVUPD Y0, (R13)
	VMOVUPD Y11, (R11)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, BX
	ADDQ    $32, R12
	ADDQ    $32, R13
	ADDQ    $32, R14
	ADDQ    $32, R11
	ADDQ    $4, R8
	DECQ    CX
	JNZ     g4loop
g4done:
	MOVQ R8, ret+88(FP)
	VZEROUPPER
	RET

// func adamavx(w, grad, m, v *float64, n int, k *adamConsts)
//
// adamUpdateGo four elements at a time over [0, n), n a positive multiple
// of 4: g·scale when k.clip is set, m = β1·m + (1-β1)·g, v = β2·v +
// ((1-β2)·g)·g, w = w - (lr·(m/bc1))/(√(v/bc2) + eps), g = 0.
TEXT ·adamavx(SB), NOSPLIT, $0-48
	MOVQ         w+0(FP), DI
	MOVQ         grad+8(FP), SI
	MOVQ         m+16(FP), R8
	MOVQ         v+24(FP), R9
	MOVQ         n+32(FP), CX
	MOVQ         k+40(FP), DX
	VBROADCASTSD 0(DX), Y8      // scale
	VBROADCASTSD 8(DX), Y9      // β1
	VBROADCASTSD 16(DX), Y10    // 1-β1
	VBROADCASTSD 24(DX), Y11    // β2
	VBROADCASTSD 32(DX), Y12    // 1-β2
	VBROADCASTSD 40(DX), Y13    // bc1
	VBROADCASTSD 48(DX), Y14    // bc2
	VBROADCASTSD 56(DX), Y15    // lr
	VBROADCASTSD 64(DX), Y7     // eps
	MOVQ         72(DX), R10    // clip
	VXORPD       Y6, Y6, Y6
	SHRQ         $2, CX
adamloop:
	VMOVUPD (SI), Y0            // g
	TESTQ   R10, R10
	JZ      adamnoclip
	VMULPD  Y8, Y0, Y0
adamnoclip:
	VMULPD  (R8), Y9, Y1        // β1·m
	VMULPD  Y0, Y10, Y2         // (1-β1)·g
	VADDPD  Y2, Y1, Y1          // m
	VMULPD  (R9), Y11, Y2       // β2·v
	VMULPD  Y0, Y12, Y3         // (1-β2)·g
	VMULPD  Y0, Y3, Y3          // ·g
	VADDPD  Y3, Y2, Y2          // v
	VMOVUPD Y1, (R8)
	VMOVUPD Y2, (R9)
	VDIVPD  Y13, Y1, Y1         // m/bc1
	VDIVPD  Y14, Y2, Y2         // v/bc2
	VSQRTPD Y2, Y2
	VADDPD  Y7, Y2, Y2          // √ + eps
	VMULPD  Y1, Y15, Y1         // lr·mh
	VDIVPD  Y2, Y1, Y1
	VMOVUPD (DI), Y3
	VSUBPD  Y1, Y3, Y3
	VMOVUPD Y3, (DI)
	VMOVUPD Y6, (SI)            // g = 0
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	DECQ    CX
	JNZ     adamloop
	VZEROUPPER
	RET
