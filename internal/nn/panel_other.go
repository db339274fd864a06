//go:build !amd64

package nn

// Non-amd64 targets always take the portable bounds-check-free kernel.
const useAVX = false

func panelMul1avx(wp *float32, x *float32, cols int, dst *float32) {
	panic("nn: panelMul1avx unavailable on this architecture")
}

func panelMul4avx(wp *float32, x0, x1, x2, x3 *float32, cols int, dst0, dst1, dst2, dst3 *float32) {
	panic("nn: panelMul4avx unavailable on this architecture")
}

func panelMulNZ1avx(wp *float32, x *float32, nz *int32, n int, dst *float32) {
	panic("nn: panelMulNZ1avx unavailable on this architecture")
}

func panelMulNZ4avx(wp *float32, stride int, x *float32, nz *int32, n int, dst *float32) {
	panic("nn: panelMulNZ4avx unavailable on this architecture")
}

// gateConsts is empty off amd64: only the assembly reads the table.
type gateConsts struct{}

var gateK gateConsts

func lstmGates8avx(n, hd int, pre, rec, bias, h, c *float32, k *gateConsts) {
	panic("nn: lstmGates8avx unavailable on this architecture")
}

func axpyavx(dst, x *float64, a float64, n int) {
	panic("nn: axpyavx unavailable on this architecture")
}

func addOuter4avx(row, x0, x1, x2, x3 *float64, a0, a1, a2, a3 float64, n int) {
	panic("nn: addOuter4avx unavailable on this architecture")
}

func mulT4avx(x, wT *float64, cols, n int, dst *float64) {
	panic("nn: mulT4avx unavailable on this architecture")
}

func mulT1avx(x, wT *float64, cols, n int, dst *float64) {
	panic("nn: mulT1avx unavailable on this architecture")
}

// gate64Consts is empty off amd64: only the assembly reads the table.
type gate64Consts struct{}

var gate64K gate64Consts

// hasFMA is false off amd64: the float64 gate kernel is amd64 assembly.
const hasFMA = false

func lstmGates4avx(j, n, hd int, pre, rec, bias, gates, h, c, tc *float64, k *gate64Consts) int {
	panic("nn: lstmGates4avx unavailable on this architecture")
}

func adamavx(w, grad, m, v *float64, n int, k *adamConsts) {
	panic("nn: adamavx unavailable on this architecture")
}
