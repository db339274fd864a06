package nn

// Quantized float32 inference layers. An LSTM32/Dense32 is produced from
// its float64 twin by Quantize32 at model-load time: weights are packed
// into 8-row panels (panel32.go) and biases narrowed once, then the step
// kernels run entirely in float32. The float64 layers are the training
// representation and the reference oracle; these serve.

// LSTM32 is a quantized LSTM cell holding panel-packed weights. It is
// immutable after construction and safe for concurrent readers.
type LSTM32 struct {
	In, Hidden int
	Wx         *PanelMat32 // 4*Hidden × In
	Wh         *PanelMat32 // 4*Hidden × Hidden
	B          Vec32       // 4*Hidden
}

// Quantize32 packs the cell's float64 weights into a float32 inference
// cell. Non-finite weights (the signature of a corrupt or diverged weight
// file) are rejected.
func (l *LSTM) Quantize32() (*LSTM32, error) {
	wx, err := PackPanels32(l.Wx)
	if err != nil {
		return nil, err
	}
	wh, err := PackPanels32(l.Wh)
	if err != nil {
		return nil, err
	}
	b, err := QuantizeVec32(l.B)
	if err != nil {
		return nil, err
	}
	return &LSTM32{In: l.In, Hidden: l.Hidden, Wx: wx, Wh: wh, B: b}, nil
}

// StepScratch32 holds the padded pre-activation buffers one Step32 needs.
// Caller owned and reusable, like StepScratch.
type StepScratch32 struct {
	pre, rec Vec32
}

func (s *StepScratch32) ensure(n int) {
	if cap(s.pre) < n {
		s.pre = make(Vec32, n)
		s.rec = make(Vec32, n)
	}
	s.pre = s.pre[:n]
	s.rec = s.rec[:n]
}

// Step32 advances the cell by one timestep from state (h, c) with input x,
// updating h and c in place and returning them — the float32 analogue of
// LSTM.Step, allocation-free at steady state with a reused scratch. Nothing
// serves through it: it is the one-row reference StepBatch32 is pinned
// against bit for bit.
func (l *LSTM32) Step32(h, c, x Vec32, s *StepScratch32) (Vec32, Vec32) {
	hd := l.Hidden
	if h == nil {
		h = NewVec32(hd)
	}
	if c == nil {
		c = NewVec32(hd)
	}
	if s == nil {
		s = &StepScratch32{}
	}
	s.ensure(l.Wx.Padded())
	l.Wx.MulVec32(x, s.pre)
	l.Wh.MulVec32(h, s.rec)
	lstmGates32(hd, s.pre, s.rec, l.B, h, c)
	return h, c
}

// lstmGates32 applies the gate nonlinearities for one stream in float32.
// Single shared definition for Step32 and the batched kernels, mirroring
// the float64 lstmGatesTape, so the reference and the serving path stay
// bit-identical to each other. Where the vector kernel is available it takes the units in
// groups of eight and the scalar loop finishes the remainder; the two are
// bit-identical unit for unit (TestGates32MatchScalarBitwise), so where
// the split falls changes nothing.
func lstmGates32(hd int, pre, rec, bias, h, c Vec32) {
	done := 0
	if useAVX && hd >= 8 {
		// The same exact-length views the scalar loop takes: they panic on
		// a short operand before the assembly indexes it unchecked.
		p, r, b := pre[:4*hd], rec[:4*hd], bias[:4*hd]
		hh, cc := h[:hd], c[:hd]
		if len(p) > 0 { // always true; proves the &p[0] the compiler cannot
			done = hd &^ 7
			lstmGates8avx(done, hd, &p[0], &r[0], &b[0], &hh[0], &cc[0], &gateK)
		}
	}
	lstmGates32go(hd, done, pre, rec, bias, h, c)
}

// lstmGates32go is the scalar gate loop over units [from, hd): the
// portable path, the tail of the vector one, and the reference the vector
// kernel is pinned to. The per-gate subslices give the compiler
// equal-length slices over the loop, so the body compiles with no bounds
// checks (`make bce`).
func lstmGates32go(hd, from int, pre, rec, bias, h, c Vec32) {
	// The two-step [k*hd:][:hd] slicing (rather than [k*hd:(k+1)*hd]) gives
	// each gate slice an exact length of hd, which the prove pass needs to
	// eliminate the bounds checks inside the loop (a [a:b] length is b-a,
	// which it cannot simplify to hd against potential overflow).
	pi, ri, bi := pre[:hd], rec[:hd], bias[:hd]
	pf, rf, bf := pre[hd:][:hd], rec[hd:][:hd], bias[hd:][:hd]
	pg, rg, bg := pre[2*hd:][:hd], rec[2*hd:][:hd], bias[2*hd:][:hd]
	po, ro, bo := pre[3*hd:][:hd], rec[3*hd:][:hd], bias[3*hd:][:hd]
	h = h[:hd]
	c = c[:hd]
	if from < 0 {
		panic("nn: lstmGates32go negative start")
	}
	for j := from; j < len(h); j++ {
		gi := Sigmoid32(pi[j] + ri[j] + bi[j])
		gf := Sigmoid32(pf[j] + rf[j] + bf[j])
		gg := Tanh32(pg[j] + rg[j] + bg[j])
		go_ := Sigmoid32(po[j] + ro[j] + bo[j])
		c[j] = gf*c[j] + gi*gg
		h[j] = go_ * Tanh32(c[j])
	}
}

// BatchScratch32 holds the padded pre-activation batches and the column
// list the batched kernels need. Caller owned and reusable.
type BatchScratch32 struct {
	pre, rec Batch32
	nz       []int32
}

// StepBatch32 is one batched cell step from raw inputs: it advances B
// independent streams through the shared quantized weights in one pass.
// Row i of hs/cs is stream i's recurrent state (updated in place), row i
// of xs its input. The serving lane runs its two halves itself —
// MulVecNZ32 once per distinct input or filled pool, then StepProjected32
// — and this composition is what the tests pin to Step32.
// Per row the arithmetic is exactly Step32's — the input projection
// visits only the row's non-zero columns, which changes no bit (see
// MulVecNZ32) — so StepBatch32 row i is bit-identical to
// Step32(h_i, c_i, x_i).
func (l *LSTM32) StepBatch32(hs, cs, xs *Batch32, s *BatchScratch32) {
	if xs.Cols != l.In {
		panic("nn: StepBatch32 column mismatch")
	}
	s.pre.Resize(xs.Rows, l.Wx.Padded())
	for i := 0; i < xs.Rows; i++ {
		x := xs.Row(i)
		s.nz = NonZero32(x, s.nz)
		l.Wx.MulVecNZ32(x, s.nz, s.pre.Row(i))
	}
	l.StepProjected32(hs, cs, &s.pre, nil, s)
}

// StepProjected32 is StepBatch32 from the input projection on: row i
// steps with the pre-activation W_x·x in row src[i] of pre (row i when
// src is nil), so streams fed one and the same input share one projection
// of it. The rows of pre come from Wx.MulVecNZ32.
func (l *LSTM32) StepProjected32(hs, cs, pre *Batch32, src []int, s *BatchScratch32) {
	hd := l.Hidden
	if cs.Rows != hs.Rows || (src == nil && pre.Rows != hs.Rows) || (src != nil && len(src) != hs.Rows) {
		panic("nn: StepProjected32 row-count mismatch")
	}
	if hs.Cols != hd || cs.Cols != hd || pre.Cols != l.Wx.Padded() {
		panic("nn: StepProjected32 column mismatch")
	}
	hs.MulT32(l.Wh, &s.rec)
	for i := 0; i < hs.Rows; i++ {
		p := i
		if i < len(src) {
			p = src[i]
		}
		lstmGates32(hd, pre.Row(p), s.rec.Row(i), l.B, hs.Row(i), cs.Row(i))
	}
}

// Dense32 is a quantized fully connected layer y = W·x + b. Immutable
// after construction, safe for concurrent readers.
type Dense32 struct {
	In, Out int
	W       *PanelMat32 // Out×In
	B       Vec32       // Out
}

// Quantize32 packs the layer's float64 weights into a float32 inference
// layer, rejecting non-finite weights.
func (d *Dense) Quantize32() (*Dense32, error) {
	w, err := PackPanels32(d.W)
	if err != nil {
		return nil, err
	}
	b, err := QuantizeVec32(d.B)
	if err != nil {
		return nil, err
	}
	return &Dense32{In: d.In, Out: d.Out, W: w, B: b}, nil
}

// Padded returns the panel-padded output width; ForwardInto32 destinations
// and ForwardBatch32 rows have this length, with the real outputs in
// [0, Out).
func (d *Dense32) Padded() int { return d.W.Padded() }

// ForwardInto32 computes y = W·x + b into dst, which must have length
// Padded(); entries [Out, Padded) are kernel padding. Allocation-free.
func (d *Dense32) ForwardInto32(x, dst Vec32) {
	d.W.MulVec32(x, dst)
	out := dst[:d.Out]
	b := d.B[:len(out)]
	for i := range out {
		out[i] += b[i]
	}
}

// ForwardBatch32 computes the layer output for every row of xs into dst,
// resized to xs.Rows × Padded(); columns [Out, Padded) of each row are
// kernel padding. Per row the arithmetic matches ForwardInto32 exactly.
func (d *Dense32) ForwardBatch32(xs, dst *Batch32) {
	xs.MulT32(d.W, dst)
	for i := 0; i < dst.Rows; i++ {
		row := dst.Row(i)
		out := row[:d.Out]
		b := d.B[:len(out)]
		for j := range out {
			out[j] += b[j]
		}
	}
}
