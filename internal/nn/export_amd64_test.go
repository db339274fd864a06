//go:build amd64

package nn

// The external tests (package nn_test) drive whole models through core,
// which this package's own tests cannot import; these let them flip the
// kernel dispatch the way panel_amd64_test.go does.
var (
	UseAVX = &useAVX
	HasAVX = hasAVX
)
