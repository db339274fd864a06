package core

import (
	"errors"

	"github.com/xatu-go/xatu/internal/nn"
)

// InputGradients computes dλ_detStep/dx for every base-resolution input
// element — the gradient attribution of §6.2 (Fig 11): "the gradient of the
// input features represents the contribution of the features towards the
// final early detection". detStep indexes the detection window [0, Window).
//
// It is the training pass on a batch of one: forward, a one-hot dλ at
// detStep, backward with dL/dx, and the mean-pool gradient back to base
// resolution. The model's gradient accumulators are used as scratch and
// zeroed before returning, so it is safe to interleave with training (not
// concurrently).
func (m *Model) InputGradients(x [][]float64, detStep int) ([][]float64, error) {
	sc, err := m.forwardOne(x)
	if err != nil {
		return nil, err
	}
	if detStep < 0 || detStep >= sc.w {
		return nil, errors.New("core: detStep outside detection window")
	}
	sc.dHaz = make([]float64, sc.w)
	sc.dHaz[detStep] = 1
	m.backwardChunk(sc, true)
	m.ZeroGrad() // discard the weight gradients this produced

	out := make([][]float64, len(x))
	dim := m.Cfg.NumFeatures
	for i := range out {
		out[i] = make([]float64, dim)
	}
	for b, l := range m.lstms {
		if l == nil {
			continue
		}
		dPooled := make([]nn.Vec, sc.tapes[b].T)
		for t := range dPooled {
			dPooled[t] = sc.dX[b].bs[t].Row(0)
		}
		dBase := nn.MeanPoolBackward(dPooled, m.poolFactor(b), len(x), dim)
		for t := range dBase {
			for j, v := range dBase[t] {
				out[t][j] += v
			}
		}
	}
	return out, nil
}

// GroupSaliency aggregates |input gradient| per feature group per step,
// using the supplied groupOf function (features.GroupOf in practice).
// The result maps group name → per-step summed magnitude.
func GroupSaliency(grads [][]float64, groupOf func(int) string) map[string][]float64 {
	out := map[string][]float64{}
	for t := range grads {
		for j, g := range grads[t] {
			name := groupOf(j)
			s := out[name]
			if s == nil {
				s = make([]float64, len(grads))
				out[name] = s
			}
			if g < 0 {
				g = -g
			}
			s[t] += g
		}
	}
	return out
}
