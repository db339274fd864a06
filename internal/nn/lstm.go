package nn

import "math/rand"

// LSTM is a single-layer long short-term memory network. Gate order in the
// stacked weight matrices is input (i), forget (f), cell candidate (g),
// output (o).
//
// The layer keeps no per-sequence state: Step advances one stream by one
// timestep (the online detector), and ForwardBatch/BackwardBatch run
// batched BPTT over a caller-owned BatchTape (training and attribution), so
// one LSTM instance can serve many sequences (and goroutines, as long as
// gradient accumulation is externally serialized).
type LSTM struct {
	In, Hidden int
	Wx         *Mat // (4*Hidden)×In, input weights for all gates stacked
	Wh         *Mat // (4*Hidden)×Hidden, recurrent weights
	B          Vec  // 4*Hidden
	GWx        *Mat
	GWh        *Mat
	GB         Vec
}

// NewLSTM returns an LSTM with Xavier-initialized weights and the forget
// gate biased to 1 (the standard trick that lets memory persist early in
// training, which matters for Xatu's long lookback windows).
func NewLSTM(in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		In: in, Hidden: hidden,
		Wx:  NewMat(4*hidden, in),
		Wh:  NewMat(4*hidden, hidden),
		B:   NewVec(4 * hidden),
		GWx: NewMat(4*hidden, in),
		GWh: NewMat(4*hidden, hidden),
		GB:  NewVec(4 * hidden),
	}
	l.Wx.XavierInit(rng)
	l.Wh.XavierInit(rng)
	for j := 0; j < hidden; j++ {
		l.B[hidden+j] = 1 // forget-gate bias
	}
	return l
}

// Params exposes the layer's weights for optimization.
func (l *LSTM) Params() []Param {
	return []Param{
		{Name: "lstm.Wx", W: l.Wx, G: l.GWx},
		{Name: "lstm.Wh", W: l.Wh, G: l.GWh},
		{Name: "lstm.b", W: vecAsMat(l.B), G: vecAsMat(l.GB)},
	}
}

// ZeroGrad clears accumulated gradients.
func (l *LSTM) ZeroGrad() {
	l.GWx.Zero()
	l.GWh.Zero()
	l.GB.Zero()
}
