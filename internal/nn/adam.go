package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba, 2014), the optimizer the
// paper trains Xatu with (learning rate 1e-4 in the prototype). One Adam
// instance owns the moment estimates for a fixed parameter list.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	Clip    float64 // global gradient-norm clip; 0 disables
	step    int
	m, v    []*Mat
	params  []Param
	numEl   int
	prepped bool
}

// NewAdam returns an Adam optimizer over params with standard defaults
// (beta1=0.9, beta2=0.999, eps=1e-8) and a gradient-norm clip of 5, which
// keeps BPTT over long Xatu sequences stable.
func NewAdam(lr float64, params []Param) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: 5, params: params}
	a.m = make([]*Mat, len(params))
	a.v = make([]*Mat, len(params))
	for i, p := range params {
		a.m[i] = NewMat(p.W.Rows, p.W.Cols)
		a.v[i] = NewMat(p.W.Rows, p.W.Cols)
		a.numEl += len(p.W.Data)
	}
	a.prepped = true
	return a
}

// Step applies one Adam update using the gradients currently accumulated in
// the parameter list, then zeroes them. scale divides the gradients first
// (use 1/batchSize for mean-gradient semantics).
//
// It makes two passes over the gradients. The first scales them and sums
// the squared norm the clip needs, element after element in parameter
// order. The second applies the clip multiply, the moments and the
// update, and zeroes the gradient, four elements wide on AVX machines
// (adamavx) with every element's operations those of adamUpdateGo.
func (a *Adam) Step(scale float64) {
	a.step++
	clip := a.Clip > 0
	var norm2 float64
	for _, p := range a.params {
		g := p.G.Data
		switch {
		case scale != 1 && clip:
			for i, v := range g {
				v *= scale
				g[i] = v
				norm2 += v * v
			}
		case scale != 1:
			for i := range g {
				g[i] *= scale
			}
		case clip:
			for _, v := range g {
				norm2 += v * v
			}
		}
	}
	k := adamConsts{
		beta1: a.Beta1, oneMinusB1: 1 - a.Beta1,
		beta2: a.Beta2, oneMinusB2: 1 - a.Beta2,
		bc1: 1 - math.Pow(a.Beta1, float64(a.step)),
		bc2: 1 - math.Pow(a.Beta2, float64(a.step)),
		lr:  a.LR, eps: a.Eps,
	}
	if clip {
		if norm := math.Sqrt(norm2); norm > a.Clip {
			k.scale, k.clip = a.Clip/norm, 1
		}
	}
	for i, p := range a.params {
		adamUpdate(p.W.Data, p.G.Data, a.m[i].Data, a.v[i].Data, &k)
	}
}

// adamConsts carries one Step's scalars to the update kernels. The
// assembly addresses the fields by offset: keep the order.
type adamConsts struct {
	scale, beta1, oneMinusB1, beta2, oneMinusB2 float64 // 0, 8, 16, 24, 32
	bc1, bc2, lr, eps                           float64 // 40, 48, 56, 64
	clip                                        int     // 72: multiply g by scale first
}

// adamUpdate runs adamUpdateGo over one parameter, the multiple-of-four
// prefix on adamavx where AVX is available.
func adamUpdate(w, g, m, v []float64, k *adamConsts) {
	n := len(w)
	g, m, v = g[:n], m[:n], v[:n]
	done := 0
	if useAVX && n >= 4 {
		done = n &^ 3
		adamavx(&w[0], &g[0], &m[0], &v[0], done, k)
	}
	adamUpdateGo(w[done:], g[done:], m[done:], v[done:], k)
}

// adamUpdateGo is the scalar update: the optional clip multiply, the two
// moment estimates, their bias corrections and the step, in Adam's
// textbook order, then the gradient is zeroed. All four slices have the
// same length.
func adamUpdateGo(w, g, m, v []float64, k *adamConsts) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for j, gj := range g {
		if k.clip != 0 {
			gj *= k.scale
		}
		mj := k.beta1*m[j] + k.oneMinusB1*gj
		vj := k.beta2*v[j] + k.oneMinusB2*gj*gj
		m[j], v[j] = mj, vj
		mh := mj / k.bc1
		vh := vj / k.bc2
		w[j] -= k.lr * mh / (math.Sqrt(vh) + k.eps)
		g[j] = 0
	}
}

// StepCount returns the number of updates applied so far.
func (a *Adam) StepCount() int { return a.step }
