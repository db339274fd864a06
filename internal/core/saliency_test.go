package core

import (
	"math"
	"math/rand"
	"testing"
)

func TestInputGradientsMatchNumeric(t *testing.T) {
	cfg := tinyConfig()
	cfg.Window = 4
	m, _ := New(cfg)
	rng := rand.New(rand.NewSource(17))
	T := 24
	x := make([][]float64, T)
	for i := range x {
		x[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	detStep := 2
	grads, err := m.InputGradients(x, detStep)
	if err != nil {
		t.Fatal(err)
	}
	hazardAt := func() float64 { return hazards(t, m, x)[detStep] }
	const h = 1e-6
	for _, probe := range [][2]int{{0, 0}, {5, 1}, {12, 2}, {19, 0}, {21, 3}, {23, 0}} {
		ti, j := probe[0], probe[1]
		orig := x[ti][j]
		x[ti][j] = orig + h
		lp := hazardAt()
		x[ti][j] = orig - h
		lm := hazardAt()
		x[ti][j] = orig
		num := (lp - lm) / (2 * h)
		got := grads[ti][j]
		if math.Abs(num-got) > 1e-4*(1+math.Abs(num)+math.Abs(got)) {
			t.Fatalf("grad[%d][%d]: analytic %v numeric %v", ti, j, got, num)
		}
	}
	// Inputs after the detection step must have zero gradient (causality).
	base := (len(x)/cfg.PoolShort - cfg.Window + detStep) * cfg.PoolShort
	for ti := base + cfg.PoolShort; ti < T; ti++ {
		for j := range grads[ti] {
			if grads[ti][j] != 0 {
				t.Fatalf("non-causal gradient at step %d (det base %d)", ti, base)
			}
		}
	}
}

func TestInputGradientsZeroGradAfter(t *testing.T) {
	cfg := tinyConfig()
	m, _ := New(cfg)
	x := make([][]float64, 24)
	for i := range x {
		x[i] = []float64{1, 0, 0, 0}
	}
	if _, err := m.InputGradients(x, 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		for _, g := range p.G.Data {
			if g != 0 {
				t.Fatal("InputGradients must leave weight gradients zeroed")
			}
		}
	}
}

func TestInputGradientsBadStep(t *testing.T) {
	m, _ := New(tinyConfig())
	x := make([][]float64, 24)
	for i := range x {
		x[i] = []float64{0, 0, 0, 0}
	}
	if _, err := m.InputGradients(x, -1); err == nil {
		t.Fatal("negative step must error")
	}
	if _, err := m.InputGradients(x, 99); err == nil {
		t.Fatal("out-of-window step must error")
	}
}

func TestGroupSaliency(t *testing.T) {
	grads := [][]float64{{1, -2, 3}, {0, 4, -1}}
	groupOf := func(i int) string {
		if i < 2 {
			return "V"
		}
		return "A1"
	}
	s := GroupSaliency(grads, groupOf)
	if s["V"][0] != 3 || s["V"][1] != 4 {
		t.Fatalf("V saliency = %v", s["V"])
	}
	if s["A1"][0] != 3 || s["A1"][1] != 1 {
		t.Fatalf("A1 saliency = %v", s["A1"])
	}
}

func TestInputGradientsAuxiliaryLeadVisible(t *testing.T) {
	// After training on the synthetic task, the early "auxiliary" feature 1
	// must carry gradient mass well before the attack step — the Fig 11
	// effect.
	rng := rand.New(rand.NewSource(23))
	cfg := tinyConfig()
	m, _ := New(cfg)
	train := synthSet(rng, 40, 48, cfg.Window)
	if _, err := m.Fit(train, TrainOptions{Epochs: 20, BatchSize: 8, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	ex := synthExample(rng, 48, true, cfg.Window)
	grads, err := m.InputGradients(ex.X, ex.AttackStep)
	if err != nil {
		t.Fatal(err)
	}
	detBase := (len(ex.X)/cfg.PoolShort-cfg.Window+ex.AttackStep)*cfg.PoolShort - 1
	var auxMass float64
	for tIdx := 0; tIdx < detBase-4; tIdx++ { // strictly before the volumetric ramp
		auxMass += math.Abs(grads[tIdx][1])
	}
	if auxMass == 0 {
		t.Fatal("auxiliary lead feature carries no early gradient")
	}
}
