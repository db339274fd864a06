//go:build amd64

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// gateEdges64 are the float64 gate arguments where the scalar arithmetic
// changes regime: tanh's branch edges ±0.625 and ±MAXLOG/2 (44.0149…) and
// their neighbours, exp's overflow edge 709.78…, arguments below −708
// where a sigmoid's exp result is denormal or zero, ±0, subnormals, ±Inf
// and NaN.
func gateEdges64() []float64 {
	up := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	down := func(v float64) float64 { return math.Nextafter(v, math.Inf(-1)) }
	big := 0.5 * tanhMaxLog
	edges := []float64{
		0, math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072014e-308, 1e-300, 1e-8,
		0.625, up(0.625), down(0.625), big, up(big), down(big), tanhMaxLog,
		7.09782712893384e+02, up(7.09782712893384e+02), 708, 708.39, 708.4, 709, 720, 745.13, 745.2, 750, 1e10,
		math.MaxFloat64, math.Inf(1),
	}
	for _, v := range edges {
		edges = append(edges, -v)
	}
	return append(edges, math.NaN(), -math.NaN())
}

// gateCase is one call's operands: pre carries the pre-activations, rec
// and bias matching zeros (so the summed argument is pre itself, −0
// included), c the previous cell state.
type gateCase struct {
	hd                int
	pre, rec, bias, c Vec
}

func newGateCase(hd int) *gateCase {
	return &gateCase{hd: hd, pre: NewVec(4 * hd), rec: NewVec(4 * hd), bias: NewVec(4 * hd), c: NewVec(hd)}
}

// set puts v at gate g (0-3: i f g o) of unit j, with zeros of v's sign
// beside it so (pre + rec) + bias == v bit for bit.
func (gc *gateCase) set(g, j int, v float64) {
	k := g*gc.hd + j
	zero := math.Copysign(0, v)
	gc.pre[k], gc.rec[k], gc.bias[k] = v, zero, zero
}

// checkGates64 runs lstmGatesTape — whichever kernel the dispatch selects
// — beside the scalar loop over identical operands and requires every
// gate, h, c and tanh(c) bit to agree. It returns how many units the
// vector kernel took without falling back.
func checkGates64(t *testing.T, what string, gc *gateCase) int {
	t.Helper()
	hd := gc.hd
	g1, h1, c1, tc1 := NewVec(4*hd), NewVec(hd), append(Vec(nil), gc.c...), NewVec(hd)
	g2, h2, c2, tc2 := NewVec(4*hd), NewVec(hd), append(Vec(nil), gc.c...), NewVec(hd)
	lstmGatesTape(hd, gc.pre, gc.rec, gc.bias, g1, h1, c1, tc1)
	lstmGatesTapeGo(hd, 0, hd, gc.pre, gc.rec, gc.bias, g2, h2, c2, tc2)
	for k := range g2 {
		if math.Float64bits(g1[k]) != math.Float64bits(g2[k]) {
			t.Fatalf("%s: hidden %d gate %d unit %d: %v != scalar %v (argument %v)",
				what, hd, k/hd, k%hd, g1[k], g2[k], gc.pre[k]+gc.rec[k]+gc.bias[k])
		}
	}
	for j := range h2 {
		if math.Float64bits(h1[j]) != math.Float64bits(h2[j]) ||
			math.Float64bits(c1[j]) != math.Float64bits(c2[j]) ||
			math.Float64bits(tc1[j]) != math.Float64bits(tc2[j]) {
			t.Fatalf("%s: hidden %d unit %d: (h %v, c %v, tanh c %v) != scalar (%v, %v, %v); c_in %v",
				what, hd, j, h1[j], c1[j], tc1[j], h2[j], c2[j], tc2[j], gc.c[j])
		}
	}
	// How far the assembly gets on its own, on fresh copies.
	if hd < 4 {
		return 0
	}
	c3 := append(Vec(nil), gc.c...)
	return lstmGates4avx(0, hd&^3, hd, &gc.pre[0], &gc.rec[0], &gc.bias[0], &g1[0], &h1[0], &c3[0], &tc1[0], &gate64K)
}

// TestGates64MatchScalarBitwise pins the float64 gate kernel to the scalar
// loop, and so to math.Exp, math.Tanh and Sigmoid: a dense sweep of every
// gate argument over [−750, 750] (four adjacent sweep values per vector
// group, so only the groups past exp's range fall back), the cell state
// over the same range, every edge value in every gate position and in the
// cell state, and Hidden 1 to 17 for the tails. Where exp stays in range
// the vector kernel must take the group itself.
func TestGates64MatchScalarBitwise(t *testing.T) {
	if !useAVX || !hasFMA {
		t.Skip("no AVX+FMA on this machine")
	}
	const hd = 64
	gc := newGateCase(hd)
	rng := rand.New(rand.NewSource(44))
	for g := 0; g < 5; g++ { // 4 = the cell state
		for lo := -750.0; lo < 750; lo += 0.005 * hd {
			for j := 0; j < hd; j++ {
				for k := 0; k < 4; k++ {
					gc.set(k, j, rng.NormFloat64()*3)
				}
				gc.c[j] = rng.NormFloat64() * 3
				v := lo + 0.005*float64(j) + rng.Float64()*0.005
				if g == 4 {
					gc.c[j] = v
				} else {
					gc.set(g, j, v)
				}
			}
			taken := checkGates64(t, fmt.Sprintf("sweep gate %d from %v", g, lo), gc)
			// A sigmoid's exp(−|x|) is in range for |x| < 708.39; tanh's
			// exp is clamped and always is.
			if (g == 2 || g == 4 || math.Abs(lo) < 700) && taken != hd {
				t.Fatalf("sweep gate %d from %v: the vector kernel stopped at unit %d", g, lo, taken)
			}
		}
	}

	edges := gateEdges64()
	for _, hdE := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17} {
		gc := newGateCase(hdE)
		for g := 0; g < 5; g++ {
			for e := 0; e < len(edges); e++ {
				for j := 0; j < hdE; j++ {
					for k := 0; k < 4; k++ {
						gc.set(k, j, rng.NormFloat64())
					}
					gc.c[j] = rng.NormFloat64()
				}
				// The edge in one unit, rotating through the lanes.
				j := e % hdE
				if g == 4 {
					gc.c[j] = edges[e]
				} else {
					gc.set(g, j, edges[e])
				}
				checkGates64(t, fmt.Sprintf("edge %v at gate %d", edges[e], g), gc)
			}
		}
	}
}

// TestGates64FallbackGroupUntouched: a group the vector kernel cannot take
// is returned with its cell state, h and tanh(c) unwritten, and the
// kernel resumes from the next group on the next call.
func TestGates64FallbackGroupUntouched(t *testing.T) {
	if !useAVX || !hasFMA {
		t.Skip("no AVX+FMA on this machine")
	}
	const hd = 12
	gc := newGateCase(hd)
	for j := 0; j < hd; j++ {
		gc.c[j] = float64(j) + 0.5
	}
	gc.set(0, 5, -800) // exp(-800) is denormal: the second group falls back
	gates, h, tc := NewVec(4*hd), NewVec(hd), NewVec(hd)
	c := append(Vec(nil), gc.c...)
	if got := lstmGates4avx(0, hd, hd, &gc.pre[0], &gc.rec[0], &gc.bias[0], &gates[0], &h[0], &c[0], &tc[0], &gate64K); got != 4 {
		t.Fatalf("stopped at unit %d, want 4", got)
	}
	for j := 4; j < hd; j++ {
		if c[j] != gc.c[j] || h[j] != 0 || tc[j] != 0 {
			t.Fatalf("unit %d written past the stop: c %v h %v tanh c %v", j, c[j], h[j], tc[j])
		}
	}
	if got := lstmGates4avx(8, hd, hd, &gc.pre[0], &gc.rec[0], &gc.bias[0], &gates[0], &h[0], &c[0], &tc[0], &gate64K); got != hd {
		t.Fatalf("resumed call stopped at unit %d, want %d", got, hd)
	}
	checkGates64(t, "one group past exp's range", gc)
}

// backwardRun forwards a tape through l, optionally replaces Wh before the
// backward pass, and returns every gradient the pass writes: GWx, GWh, GB
// and dL/dx. Row 1 gets no injection at the last step, so its dz row is
// exactly zero there — the coefficients MulTransBatch skips.
func backwardRun(l *LSTM, xs [][]float64, whAfter []float64, B, T int) []float64 {
	var tp BatchTape
	tp.Reset(l, B, T)
	for t2 := 0; t2 < T; t2++ {
		copy(tp.Xs[t2].Data, xs[t2])
	}
	l.ForwardBatch(&tp)
	saved := append([]float64(nil), l.Wh.Data...)
	if whAfter != nil {
		copy(l.Wh.Data, whAfter)
	}
	dH := make([]Batch, T)
	dX := make([]Batch, T)
	touched := make([]bool, T)
	for t2 := 0; t2 < T; t2++ {
		dH[t2].Resize(B, l.Hidden)
		for i := range dH[t2].Data {
			dH[t2].Data[i] = tp.H[t2].Data[i] - 0.25
		}
		touched[t2] = true
	}
	for j := range dH[T-1].Row(1) {
		dH[T-1].Row(1)[j] = 0
	}
	var s BatchGradScratch
	l.ZeroGrad()
	l.BackwardBatchDX(&tp, dH, touched, &s, dX)
	copy(l.Wh.Data, saved)
	out := append(append(append([]float64(nil), l.GWx.Data...), l.GWh.Data...), l.GB...)
	for t2 := range dX {
		out = append(out, dX[t2].Data...)
	}
	return out
}

// TestRecurrentGradTileAVXMatchesGoBitwise flips useAVX under the
// backward pass, where the recurrent dL/dh runs on the tiled MulT kernel
// against Wh as stored: at Hidden 8 and 64 (the tile) and 10 (not a
// multiple of 4: MulTransBatch), with a finite Wh, and with an Inf or a
// NaN in Wh, which must keep MulTransBatch and its zero skip — the tile
// would turn 0·Inf into NaN in the row with no gradient.
func TestRecurrentGradTileAVXMatchesGoBitwise(t *testing.T) {
	saved := useAVX
	defer func() { useAVX = saved }()
	rng := rand.New(rand.NewSource(45))
	const in, B, T = 9, 5, 7
	for _, hidden := range []int{8, 10, 64} {
		l := NewLSTM(in, hidden, rng)
		xs := make([][]float64, T)
		for t2 := range xs {
			xs[t2] = edgyVec(rng, B*in, false)
		}
		for _, bad := range []float64{0, math.Inf(1), math.NaN()} {
			var whAfter []float64
			if bad != 0 {
				whAfter = append([]float64(nil), l.Wh.Data...)
				whAfter[rng.Intn(len(whAfter))] = bad
			}
			useAVX = true
			avx := backwardRun(l, xs, whAfter, B, T)
			useAVX = false
			goRef := backwardRun(l, xs, whAfter, B, T)
			for i := range goRef {
				if math.Float64bits(avx[i]) != math.Float64bits(goRef[i]) {
					t.Fatalf("hidden %d, Wh holding %v: gradient element %d AVX %v != Go %v",
						hidden, bad, i, avx[i], goRef[i])
				}
			}
		}
	}
}

// TestFlushSparseGradKeepsZeroSkip: the blocked flush adds every non-zero
// scratch entry once and skips the zeros, so a −0 gradient stays −0 —
// over column counts that leave each tail of the four-row blocks.
func TestFlushSparseGradKeepsZeroSkip(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for _, cols := range []int{1, 3, 4, 5, 8, 11} {
		const rows = 6
		g := &Mat{Rows: rows, Cols: cols, Data: edgyVec(rng, rows*cols, true)}
		for i := range g.Data {
			if i%3 == 0 {
				g.Data[i] = math.Copysign(0, -1)
			}
		}
		var s Batch
		s.Resize(cols, rows)
		copy(s.Data, edgyVec(rng, rows*cols, true))
		for i := range s.Data {
			if i%2 == 0 {
				s.Data[i] = 0
			}
		}
		want := append([]float64(nil), g.Data...)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if v := s.Data[c*rows+r]; v != 0 {
					want[r*cols+c] += v
				}
			}
		}
		flushSparseGrad(g, &s)
		checkSame64(t, fmt.Sprintf("flushSparseGrad cols=%d", cols), g.Data, want)
		for i := range want {
			if math.Signbit(g.Data[i]) != math.Signbit(want[i]) {
				t.Fatalf("cols=%d element %d: sign %v, want %v", cols, i, g.Data[i], want[i])
			}
		}
	}
}

// adamStepFourPass is Adam.Step as it was written before the two-pass
// form: scale, norm, clip and update as four separate passes. The
// two-pass Step must give the same bytes.
func adamStepFourPass(a *Adam, scale float64) {
	a.step++
	if scale != 1 {
		for _, p := range a.params {
			for i := range p.G.Data {
				p.G.Data[i] *= scale
			}
		}
	}
	if a.Clip > 0 {
		var norm2 float64
		for _, p := range a.params {
			for _, g := range p.G.Data {
				norm2 += g * g
			}
		}
		norm := math.Sqrt(norm2)
		if norm > a.Clip {
			s := a.Clip / norm
			for _, p := range a.params {
				for i := range p.G.Data {
					p.G.Data[i] *= s
				}
			}
		}
	}
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		m := a.m[i].Data
		v := a.v[i].Data
		for j, g := range p.G.Data {
			m[j] = a.Beta1*m[j] + (1-a.Beta1)*g
			v[j] = a.Beta2*v[j] + (1-a.Beta2)*g*g
			mh := m[j] / bc1
			vh := v[j] / bc2
			p.W.Data[j] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
		p.G.Zero()
	}
}

// TestAdamTwoPassMatchesFourPassBitwise runs the two-pass Step — on the
// AVX kernel and on the Go loop — beside the four-pass reference over
// parameters of every length mod 4, with and without the clip firing and
// with and without scaling, including ±0, subnormal and huge gradients:
// weights, moments and the zeroed gradients must agree bit for bit.
func TestAdamTwoPassMatchesFourPassBitwise(t *testing.T) {
	saved := useAVX
	defer func() { useAVX = saved }()
	rng := rand.New(rand.NewSource(47))
	mk := func() []Param {
		var ps []Param
		for i, n := range []int{1, 3, 4, 7, 9, 16, 33} {
			w := &Mat{Rows: 1, Cols: n, Data: edgyVec(rng, n, false)}
			g := &Mat{Rows: 1, Cols: n, Data: make([]float64, n)}
			ps = append(ps, Param{Name: fmt.Sprint(i), W: w, G: g})
		}
		return ps
	}
	clone := func(ps []Param) []Param {
		out := make([]Param, len(ps))
		for i, p := range ps {
			out[i] = Param{Name: p.Name, W: p.W.Clone(), G: p.G.Clone()}
		}
		return out
	}
	for _, avx := range []bool{true, false} {
		for _, clip := range []float64{0, 5, 1e-3} {
			for _, scale := range []float64{1, 1.0 / 12} {
				ref := mk()
				two := clone(ref)
				aRef, aTwo := NewAdam(0.01, ref), NewAdam(0.01, two)
				aRef.Clip, aTwo.Clip = clip, clip
				for step := 0; step < 5; step++ {
					for i, p := range ref {
						g := edgyVec(rng, len(p.G.Data), false)
						for j := range g {
							switch rng.Intn(8) {
							case 0:
								g[j] = math.Copysign(0, -1)
							case 1:
								g[j] = 1e-310
							case 2:
								g[j] *= 1e6
							}
						}
						copy(p.G.Data, g)
						copy(two[i].G.Data, g)
					}
					useAVX = true
					adamStepFourPass(aRef, scale)
					useAVX = avx && saved
					aTwo.Step(scale)
					for i := range ref {
						what := fmt.Sprintf("avx=%v clip=%v scale=%v step %d param %d", avx, clip, scale, step, i)
						checkSame64(t, what+" W", two[i].W.Data, ref[i].W.Data)
						checkSame64(t, what+" m", aTwo.m[i].Data, aRef.m[i].Data)
						checkSame64(t, what+" v", aTwo.v[i].Data, aRef.v[i].Data)
						checkSame64(t, what+" G", two[i].G.Data, ref[i].G.Data)
					}
				}
			}
		}
	}
}
