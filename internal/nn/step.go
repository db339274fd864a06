package nn

// StepScratch holds the pre-activation, gate and tanh(c) buffers one LSTM
// Step needs. The caller owns it (zero value is ready to use) and reuses it
// across steps, so the single-stream hot path performs no allocation. A
// scratch may be shared by LSTMs of different sizes — ensure regrows it as
// needed — but not by concurrent goroutines.
type StepScratch struct {
	pre, rec, gates, tc Vec
}

// ensure sizes the buffers for an LSTM of the given hidden width.
func (s *StepScratch) ensure(hd int) {
	n := 4 * hd
	if cap(s.pre) < n {
		s.pre = make(Vec, n)
		s.rec = make(Vec, n)
		s.gates = make(Vec, n)
		s.tc = make(Vec, hd)
	}
	s.pre = s.pre[:n]
	s.rec = s.rec[:n]
	s.gates = s.gates[:n]
	s.tc = s.tc[:hd]
}

// Step advances the LSTM by one timestep from state (h, c) with input x,
// updating h and c in place and returning them. Nil h or c is treated as
// the zero state and allocated; steady-state callers pass the vectors
// returned by the previous step plus a reusable scratch, making the online
// path (Xatu's streaming detector) allocation-free. A nil scratch is
// allowed and allocates per call.
func (l *LSTM) Step(h, c, x Vec, s *StepScratch) (Vec, Vec) {
	hd := l.Hidden
	if h == nil {
		h = NewVec(hd)
	}
	if c == nil {
		c = NewVec(hd)
	}
	if s == nil {
		s = &StepScratch{}
	}
	s.ensure(hd)
	l.Wx.MulVec(x, s.pre)
	l.Wh.MulVec(h, s.rec)
	lstmGatesTape(hd, s.pre, s.rec, l.B, s.gates, h, c, s.tc)
	return h, c
}

// ShareWeights returns an LSTM that aliases l's weight matrices but owns
// fresh gradient accumulators. Replicas are safe to run concurrently for
// forward/backward as long as nothing mutates the shared weights while
// replicas are active; merge replica gradients with MergeGradsInto before
// the optimizer step.
func (l *LSTM) ShareWeights() *LSTM {
	return &LSTM{
		In: l.In, Hidden: l.Hidden,
		Wx: l.Wx, Wh: l.Wh, B: l.B,
		GWx: NewMat(4*l.Hidden, l.In),
		GWh: NewMat(4*l.Hidden, l.Hidden),
		GB:  NewVec(4 * l.Hidden),
	}
}

// MergeGradsInto adds l's accumulated gradients into dst's accumulators and
// zeroes l's.
func (l *LSTM) MergeGradsInto(dst *LSTM) {
	dst.GWx.AddScaled(l.GWx, 1)
	dst.GWh.AddScaled(l.GWh, 1)
	dst.GB.Add(l.GB)
	l.ZeroGrad()
}

// ShareWeights returns a Dense aliasing d's weights with fresh gradients.
func (d *Dense) ShareWeights() *Dense {
	return &Dense{
		In: d.In, Out: d.Out,
		W: d.W, B: d.B,
		GW: NewMat(d.Out, d.In),
		GB: NewVec(d.Out),
	}
}

// MergeGradsInto adds d's accumulated gradients into dst's and zeroes d's.
func (d *Dense) MergeGradsInto(dst *Dense) {
	dst.GW.AddScaled(d.GW, 1)
	dst.GB.Add(d.GB)
	d.ZeroGrad()
}
