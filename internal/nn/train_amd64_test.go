//go:build amd64

package nn_test

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/nn"
)

// flipExamples draws mixed-length examples whose rows are dense Gaussian
// or carry three non-zeros out of 24 (the sparse input projection).
func flipExamples(rng *rand.Rand, dense bool, window int) []core.Example {
	var out []core.Example
	for i, T := range []int{30, 30, 24, 30, 30, 36, 30, 30, 30, 30} {
		ex := core.Example{Attack: i%2 == 0, AttackStep: window / 2}
		for t := 0; t < T; t++ {
			row := make([]float64, 24)
			for k := range row {
				if dense {
					row[k] = rng.NormFloat64()
				}
			}
			if !dense {
				for k := 0; k < 3; k++ {
					row[(k*7+t)%24] = rng.NormFloat64()
				}
			}
			ex.X = append(ex.X, row)
		}
		out = append(out, ex)
	}
	return out
}

// flipRun trains a model with the kernel dispatch set to avx and returns
// its saved bytes, the survival curve of one sequence and the input
// gradients at its first and last detection steps.
func flipRun(t *testing.T, avx, dense bool, workers, hidden int) (saved []byte, outs []float64) {
	t.Helper()
	*nn.UseAVX = avx
	cfg := core.DefaultConfig(24)
	cfg.Hidden = hidden
	cfg.PoolShort, cfg.PoolMed, cfg.PoolLong = 1, 3, 6
	cfg.Window = 8
	rng := rand.New(rand.NewSource(81))
	examples := flipExamples(rng, dense, cfg.Window)
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// BatchSize 6: one worker sees chunks of up to six (a 4-row tile and a
	// remainder), two workers chunks of up to three.
	if _, err := m.Fit(examples, core.TrainOptions{Epochs: 2, BatchSize: 6, Workers: workers, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	x := flipExamples(rng, dense, cfg.Window)[0].X
	xs := make([]nn.Vec, len(x))
	for i := range x {
		xs[i] = x[i]
	}
	s, err := m.Survival(xs)
	if err != nil {
		t.Fatal(err)
	}
	outs = append(outs, s...)
	for _, det := range []int{0, len(s) - 1} {
		g, err := m.InputGradients(x, det)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range g {
			outs = append(outs, row...)
		}
	}
	return buf.Bytes(), outs
}

// TestFitAVXMatchesGoBitwise is the whole-model flip: Fit on sparse and on
// dense rows with one and two workers, then Survival and InputGradients,
// once on the AVX kernels and once on the portable Go loops. The saved
// model bytes and every output bit must agree. Hidden 7 gives 4·Hidden =
// 28 products (the 8-wide passes and a 4-wide remainder) and a gate group
// plus a 3-unit scalar tail, and keeps the recurrent dL/dh on
// MulTransBatch; Hidden 8 runs it on the tile. Both run the vector gates
// (on FMA machines), the taped tanh(c), the blocked GWx flush and Adam's
// four-wide update.
func TestFitAVXMatchesGoBitwise(t *testing.T) {
	if !nn.HasAVX() {
		t.Skip("no AVX on this machine")
	}
	saved := *nn.UseAVX
	defer func() { *nn.UseAVX = saved }()
	for _, hidden := range []int{7, 8} {
		for _, dense := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				modelAVX, outAVX := flipRun(t, true, dense, workers, hidden)
				modelGo, outGo := flipRun(t, false, dense, workers, hidden)
				if !bytes.Equal(modelAVX, modelGo) {
					t.Fatalf("hidden=%d dense=%v workers=%d: saved models differ between AVX and Go kernels", hidden, dense, workers)
				}
				if len(outAVX) != len(outGo) {
					t.Fatalf("hidden=%d dense=%v workers=%d: %d outputs vs %d", hidden, dense, workers, len(outAVX), len(outGo))
				}
				for i := range outGo {
					if math.Float64bits(outAVX[i]) != math.Float64bits(outGo[i]) {
						t.Fatalf("hidden=%d dense=%v workers=%d: output %d AVX %v != Go %v", hidden, dense, workers, i, outAVX[i], outGo[i])
					}
				}
			}
		}
	}
}
