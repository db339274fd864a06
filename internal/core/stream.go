package core

import (
	"math"

	"github.com/xatu-go/xatu/internal/nn"
)

// Stream is the online (deployment-time) form of the model: it consumes one
// base-resolution feature vector per step, advances the three LSTMs
// incrementally (pooled branches step when their aggregation buffers fill),
// and maintains the survival probability over a sliding detection window.
// Each Push is O(model) work — the paper's "each detection runs within
// 10 ms" property — independent of how long the stream has been running,
// and allocates nothing in steady state: recurrent state and pooling
// buffers are owned by the Stream, kernel scratch by whoever steps it, all
// reused every step.
//
// One type, with the oracle's state behind one pointer. NewStream makes
// the float64 oracle, which steps itself through the training-precision
// kernels: its recurrent state, pooling buffers, last input and kernel
// scratch are in o. BatchRunner32.NewStream makes a serving stream: o is
// nil, its float32 recurrent state is one slab of the lane's arena, its
// pooling buffers and last input are an input record it shares with the
// streams fed the same inputs (inputRec), and only that lane steps it.
// The survival accounting (seen, the hazard ring and its sum, steps) is
// float64 in both, and so is the checkpoint format: a serving stream's
// float32 state widens exactly to float64 on write and narrows exactly
// back on restore.
//
// A Stream is not safe for concurrent use.
type Stream struct {
	m *Model
	o *oracle // nil on a serving stream
	// A serving stream's lane, its float32 h and c of every enabled branch
	// — one slab carved from the lane's arena so gather/scatter walks
	// linear memory; branch b's h at lane.off[b], its c Hidden further —
	// and its input record, shared with the customer's other channels.
	lane  *BatchRunner32
	state nn.Vec32
	rec   *inputRec
	// hazards is the ring buffer of the last Window hazards. The window
	// total at ring position p is sumNew plus the previous epoch's slots
	// [p, Window): sumNew is the left-to-right sum of the hazards written
	// since the ring last wrapped (the current epoch), and the tail is
	// summed right to left, from the slot the ring reaches last, on every
	// step (recordHazard). No value is ever subtracted out, so there is no
	// float drift to bound, and both are pure functions of the
	// checkpointed ring — a restored stream continues bit-exactly
	// (rebuildHazardSums).
	hazards  []float64
	hazPos   int
	hazCount int
	steps    int
	sumNew   float64
	// pushEpoch is the lane's number for the last Push that listed this
	// stream: how a Push tells a stream listed twice. Never checkpointed.
	pushEpoch uint64
	seen      [numBranches]bool // branch has produced at least one state
}

// oracle is the float64 stream's own state: per-branch recurrent state
// and pooling buffers (allocated at construction so the hot path never
// checks for nil), the most recent real (non-missing) input, feeding the
// carry-forward policy of PushMissing, and reusable scratch, never
// checkpointed: per-step kernel buffers, the pooled-mean vector, the head
// input/output, and the synthesized missing-step input.
type oracle struct {
	h, c     [numBranches]nn.Vec
	bufSum   [numBranches]nn.Vec
	bufN     [numBranches]int
	lastX    nn.Vec
	scratch  nn.StepScratch
	poolMean nn.Vec
	concat   nn.Vec
	headOut  nn.Vec
	missX    nn.Vec
}

// MissingPolicy selects what a Stream feeds itself for a step with no
// telemetry, so the pooled branches keep advancing in lockstep instead of
// silently desynchronizing from the short branch.
type MissingPolicy uint8

const (
	// MissingZero feeds an all-zero feature vector (treat the gap as "no
	// traffic observed"). The default.
	MissingZero MissingPolicy = iota
	// MissingCarry repeats the last real feature vector (assume telemetry
	// was lost, not that traffic stopped).
	MissingCarry
)

// NewStream returns a fresh float64 detector state for the model: the
// reference oracle that offline scoring, threshold calibration and the
// parity tests drive. Serving streams come from BatchRunner32.NewStream.
func NewStream(m *Model) *Stream {
	nf := m.Cfg.NumFeatures
	o := &oracle{
		lastX:    nn.NewVec(nf),
		missX:    nn.NewVec(nf),
		poolMean: nn.NewVec(nf),
		concat:   nn.NewVec(m.Cfg.Hidden * m.activeBranches()),
		headOut:  nn.NewVec(1),
	}
	for b, l := range m.lstms {
		if l != nil {
			o.h[b] = nn.NewVec(m.Cfg.Hidden)
			o.c[b] = nn.NewVec(m.Cfg.Hidden)
			o.bufSum[b] = nn.NewVec(nf)
		}
	}
	return &Stream{m: m, o: o, hazards: make([]float64, m.Cfg.Window)}
}

// Steps returns how many inputs have been consumed.
func (s *Stream) Steps() int { return s.steps }

// Model returns the model this stream runs over.
func (s *Stream) Model() *Model { return s.m }

// Warm reports whether every enabled branch has produced at least one
// hidden state, i.e. the survival output is fully informed.
func (s *Stream) Warm() bool {
	for b, l := range s.m.lstms {
		if l != nil && !s.seen[b] {
			return false
		}
	}
	return s.hazCount >= s.m.Cfg.Window
}

// Push consumes one normalized feature vector and returns the survival
// probability over the sliding detection window (1.0 while nothing has
// accumulated yet). On a serving stream it is a batch of one on the
// stream's lane.
func (s *Stream) Push(x []float64) float64 {
	if s.lane != nil {
		return s.lane.pushOne(s, x)
	}
	copy(s.o.lastX, x)
	return s.push(x)
}

// PushMissing advances the stream one step with no telemetry, substituting
// an input per the policy. Mitigates detector blindness across collector
// gaps: every branch still steps, the hazard ring still advances, and the
// stream stays warm. The last real input is deliberately untouched. On a
// serving stream it is a batch of one on the stream's lane
// (BatchRunner32.PushMissing).
func (s *Stream) PushMissing(policy MissingPolicy) float64 {
	if r := s.lane; r != nil {
		r.one[0] = s
		return r.PushMissing(r.one[:], policy, r.oneOut[:])[0]
	}
	o := s.o
	if policy == MissingCarry {
		copy(o.missX, o.lastX)
	} else {
		o.missX.Zero()
	}
	return s.push(o.missX)
}

// countStep counts one consumed input. The count saturates at the largest
// value the XSC1 checkpoint's int32 field holds, so a checkpoint of a
// stream that ran that long still restores.
func (s *Stream) countStep() {
	if s.steps < math.MaxInt32 {
		s.steps++
	}
}

// push is the oracle's step: float64 kernels, stream-owned scratch.
func (s *Stream) push(x []float64) float64 {
	v, o := nn.Vec(x), s.o
	s.countStep()
	for b, l := range s.m.lstms {
		if l == nil {
			continue
		}
		k := s.m.poolFactor(b)
		if k <= 1 {
			l.Step(o.h[b], o.c[b], v, &o.scratch)
			s.seen[b] = true
			continue
		}
		o.bufSum[b].Add(v)
		o.bufN[b]++
		if o.bufN[b] >= k {
			inv := 1 / float64(k)
			for j, sum := range o.bufSum[b] {
				o.poolMean[j] = sum * inv
			}
			l.Step(o.h[b], o.c[b], o.poolMean, &o.scratch)
			s.seen[b] = true
			o.bufSum[b].Zero()
			o.bufN[b] = 0
		}
	}
	// Head over the latest available states (zeros before a branch warms).
	off := 0
	for b, l := range s.m.lstms {
		if l == nil {
			continue
		}
		copy(o.concat[off:off+s.m.Cfg.Hidden], o.h[b])
		off += s.m.Cfg.Hidden
	}
	s.m.head.ForwardInto(o.concat, o.headOut)
	return s.recordHazard(nn.Softplus(o.headOut[0]))
}

// recordHazard appends one hazard to the ring and returns the survival
// probability over the window: sumNew plus the previous epoch's tail,
// which costs at most Window-1 adds a step and no table. The tail's
// additions are fixed right to left, so the sum at every position is the
// same bits whether the ring was filled live or restored. Shared by the
// oracle push and the lane so both sum in the same order.
func (s *Stream) recordHazard(lam float64) float64 {
	s.hazards[s.hazPos] = lam
	s.sumNew += lam
	s.hazPos++
	if s.hazCount < len(s.hazards) {
		s.hazCount++
	}
	if s.hazPos == len(s.hazards) {
		// The ring wrapped: every slot now belongs to the current epoch,
		// so the window total is sumNew alone. Start a new epoch.
		total := s.sumNew
		s.hazPos, s.sumNew = 0, 0
		return math.Exp(-total)
	}
	var tail float64
	for i := len(s.hazards) - 1; i >= s.hazPos; i-- {
		tail = s.hazards[i] + tail
	}
	return math.Exp(-(s.sumNew + tail))
}

// rebuildHazardSums reconstructs sumNew from the hazard ring and position:
// the left-to-right sum of the current epoch's slots [0, hazPos) — the
// same additions, in the same order, the live stream performed
// incrementally. Used on restore.
func (s *Stream) rebuildHazardSums() {
	s.sumNew = 0
	for _, h := range s.hazards[:s.hazPos] {
		s.sumNew += h
	}
}

// Reset clears all state, returning the stream to its initial condition
// (used when mitigation ends and detection restarts, §2.6).
func (s *Stream) Reset() {
	if o := s.o; o != nil {
		for b := range o.h {
			if o.h[b] != nil {
				o.h[b].Zero()
				o.c[b].Zero()
				o.bufSum[b].Zero()
			}
			o.bufN[b] = 0
		}
		o.lastX.Zero()
	}
	s.state.Zero()
	s.seen = [numBranches]bool{}
	clear(s.hazards)
	s.sumNew = 0
	s.hazPos, s.hazCount, s.steps = 0, 0, 0
	s.dropRec()
}
