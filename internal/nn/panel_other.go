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
