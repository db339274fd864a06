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
// One type, two roles. NewStream makes the float64 oracle, which steps
// itself through the training-precision kernels. BatchRunner32.NewStream
// makes a serving stream: float32 state, stepped only by that lane, whose
// pooling buffers and last input are an input record it shares with the
// streams fed the same inputs (inputRec).
//
// A Stream is not safe for concurrent use.
type Stream struct {
	m *Model
	// per-branch recurrent state, allocated at construction so the hot
	// path never checks for nil and batch packing can always copy rows.
	h, c [numBranches]nn.Vec
	// pooling buffers for med/long branches (oracle streams; a serving
	// stream's are in its input record)
	bufSum   [numBranches]nn.Vec
	bufN     [numBranches]int
	seen     [numBranches]bool // branch has produced at least one state
	hazards  []float64         // ring buffer of the last Window hazards
	hazPos   int
	hazCount int
	// Rolling hazard-window sum, maintained without re-summing the ring
	// each step. The window total at ring position p is sumNew+suffix[p]:
	// sumNew is the left-to-right sum of the hazards written since the
	// ring last wrapped (the current epoch), and suffix[i] = hazards[i] +
	// suffix[i+1] is the suffix-sum table of the previous epoch, rebuilt
	// exactly once per Window steps at the wrap. No value is ever
	// subtracted out, so there is no float drift to bound, and both
	// quantities are pure functions of the checkpointed ring — a restored
	// stream rebuilds them bit-exactly (rebuildHazardSums).
	sumNew float64
	suffix []float64 // len Window+1, suffix[Window] == 0
	steps  int
	// lastX is the most recent real (non-missing) input, feeding the
	// carry-forward policy of PushMissing. Zero until the first real push.
	// Oracle streams only: a serving stream's is in its input record.
	lastX nn.Vec
	// reusable float64 scratch, never checkpointed: per-step kernel
	// buffers, the pooled-mean vector, the head input/output, and the
	// synthesized missing-step input. Oracle streams only.
	scratch  nn.StepScratch
	poolMean nn.Vec
	concat   nn.Vec
	headOut  nn.Vec
	missX    nn.Vec

	// A serving stream belongs to the float32 lane that created it
	// (BatchRunner32.NewStream) and is advanced only by that lane: lane is
	// non-nil, the float32 h32/c32 below replace h/c — carved contiguously
	// from the lane's arena so gather/scatter walks linear memory — rec
	// replaces bufSum/bufN/lastX, shared with the customer's other channels
	// (inputRec), and every kernel buffer is the lane's, not the stream's.
	// The survival accounting above (hazards, sums, steps) stays float64 and
	// the checkpoint format is the oracle's: float32 state widens exactly to
	// float64 on write and narrows exactly back on restore.
	lane     *BatchRunner32
	h32, c32 [numBranches]nn.Vec32
	rec      *inputRec
	// pushEpoch is the lane's number for the last Push that listed this
	// stream: how a Push tells a stream listed twice. Never checkpointed.
	pushEpoch uint64
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
	s := newStreamBase(m)
	s.lastX = nn.NewVec(m.Cfg.NumFeatures)
	s.missX = nn.NewVec(m.Cfg.NumFeatures)
	s.poolMean = nn.NewVec(m.Cfg.NumFeatures)
	s.concat = nn.NewVec(m.Cfg.Hidden * m.activeBranches())
	s.headOut = nn.NewVec(1)
	for b := range s.bufSum {
		if m.lstms[b] != nil {
			s.h[b] = nn.NewVec(m.Cfg.Hidden)
			s.c[b] = nn.NewVec(m.Cfg.Hidden)
			s.bufSum[b] = nn.NewVec(m.Cfg.NumFeatures)
		}
	}
	return s
}

// newStreamBase allocates the precision-independent survival accounting.
func newStreamBase(m *Model) *Stream {
	return &Stream{
		m:       m,
		hazards: make([]float64, m.Cfg.Window),
		suffix:  make([]float64, m.Cfg.Window+1),
	}
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
	copy(s.lastX, x)
	return s.push(x)
}

// PushMissing advances the stream one step with no telemetry, substituting
// an input per the policy. Mitigates detector blindness across collector
// gaps: every branch still steps, the hazard ring still advances, and the
// stream stays warm. lastX is deliberately untouched: it tracks real
// inputs. On a serving stream it is a batch of one on the stream's lane
// (BatchRunner32.PushMissing).
func (s *Stream) PushMissing(policy MissingPolicy) float64 {
	if r := s.lane; r != nil {
		r.one[0] = s
		return r.PushMissing(r.one[:], policy, r.oneOut[:])[0]
	}
	if policy == MissingCarry {
		copy(s.missX, s.lastX)
	} else {
		s.missX.Zero()
	}
	return s.push(s.missX)
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
	v := nn.Vec(x)
	s.countStep()
	for b, l := range s.m.lstms {
		if l == nil {
			continue
		}
		k := s.m.poolFactor(b)
		if k <= 1 {
			l.Step(s.h[b], s.c[b], v, &s.scratch)
			s.seen[b] = true
			continue
		}
		s.bufSum[b].Add(v)
		s.bufN[b]++
		if s.bufN[b] >= k {
			inv := 1 / float64(k)
			for j, sum := range s.bufSum[b] {
				s.poolMean[j] = sum * inv
			}
			l.Step(s.h[b], s.c[b], s.poolMean, &s.scratch)
			s.seen[b] = true
			s.bufSum[b].Zero()
			s.bufN[b] = 0
		}
	}
	// Head over the latest available states (zeros before a branch warms).
	off := 0
	for b, l := range s.m.lstms {
		if l == nil {
			continue
		}
		copy(s.concat[off:off+s.m.Cfg.Hidden], s.h[b])
		off += s.m.Cfg.Hidden
	}
	s.m.head.ForwardInto(s.concat, s.headOut)
	return s.recordHazard(nn.Softplus(s.headOut[0]))
}

// recordHazard appends one hazard to the ring and returns the survival
// probability over the window, maintaining the rolling sum in O(1) with an
// exact O(Window) suffix rebuild once per wrap. Shared by the oracle push
// and the lane so both sum in the same order.
func (s *Stream) recordHazard(lam float64) float64 {
	s.hazards[s.hazPos] = lam
	s.sumNew += lam
	s.hazPos++
	if s.hazCount < len(s.hazards) {
		s.hazCount++
	}
	var total float64
	if s.hazPos == len(s.hazards) {
		// The ring wrapped: every slot now belongs to the current epoch,
		// so the window total is sumNew alone. Rebuild the suffix table
		// from the ring (the exact per-Window refresh) and start a new
		// epoch.
		s.hazPos = 0
		total = s.sumNew
		s.rebuildSuffix(0)
		s.sumNew = 0
	} else {
		total = s.sumNew + s.suffix[s.hazPos]
	}
	return math.Exp(-total)
}

// rebuildSuffix recomputes suffix[i] = hazards[i] + suffix[i+1] for
// i ∈ [from, Window). The recursion is fixed right-to-left so a rebuild
// from checkpointed ring contents reproduces the live table bit-exactly.
func (s *Stream) rebuildSuffix(from int) {
	s.suffix[len(s.hazards)] = 0
	for i := len(s.hazards) - 1; i >= from; i-- {
		s.suffix[i] = s.hazards[i] + s.suffix[i+1]
	}
}

// rebuildHazardSums reconstructs the rolling-sum state (sumNew and the
// suffix table) from the hazard ring and position. Both are pure functions
// of the checkpointed fields: sumNew is the left-to-right sum of the
// current epoch's slots [0, hazPos) — the same additions, in the same
// order, the live stream performed incrementally — and the suffix table
// covers the previous epoch's slots [hazPos, Window), untouched since the
// last wrap. Used on restore.
func (s *Stream) rebuildHazardSums() {
	for i := 0; i < s.hazPos; i++ {
		s.suffix[i] = 0
	}
	s.rebuildSuffix(s.hazPos)
	s.sumNew = 0
	for i := 0; i < s.hazPos; i++ {
		s.sumNew += s.hazards[i]
	}
}

// Reset clears all state, returning the stream to its initial condition
// (used when mitigation ends and detection restarts, §2.6).
func (s *Stream) Reset() {
	for b := range s.h {
		if s.h[b] != nil {
			s.h[b].Zero()
			s.c[b].Zero()
			s.bufSum[b].Zero()
		}
		if s.h32[b] != nil {
			s.h32[b].Zero()
			s.c32[b].Zero()
		}
		s.bufN[b] = 0
		s.seen[b] = false
	}
	for i := range s.hazards {
		s.hazards[i] = 0
	}
	for i := range s.suffix {
		s.suffix[i] = 0
	}
	s.sumNew = 0
	s.hazPos, s.hazCount, s.steps = 0, 0, 0
	s.lastX.Zero()
	s.dropRec()
}
