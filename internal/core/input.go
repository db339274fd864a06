package core

import (
	"math"

	"github.com/xatu-go/xatu/internal/nn"
)

// inputRec is the input side of a serving stream: the last real input and
// the pooled branches' running sums. It depends on the inputs alone, not on
// the recurrent state, so the channels of one customer — six streams fed
// one feature vector — hold one record between them instead of six equal
// copies, and a Push adds the sums and projects a filled pool once per
// record instead of once per stream.
//
// Sharing is by value. Streams hold one record only while their input
// sides are bit-equal, which every sharer's own copy would be; the lane
// merges adjacent rows of a Push fed one slice whose records are bit-equal
// and gives rows a private copy before a Push that would make them differ
// (BatchRunner32.own). A nil record is the zero record: a stream that has
// never been pushed, or was Reset.
type inputRec struct {
	// lastX is the most recent real (non-missing) input, the carry-forward
	// policy's substitute. float64, as the caller passed it.
	lastX nn.Vec
	// sum and n are the pooled branches' running sums and input counts;
	// sum[b] is nil for an unpooled branch.
	sum [numBranches]nn.Vec32
	n   [numBranches]int
	// refs counts the streams holding the record. unit and listed are the
	// lane's per-Push bookkeeping: the run of rows that last counted the
	// record and how many of its rows hold it.
	refs   int
	unit   uint64
	listed int
}

// newRec returns a zero record for the lane's model.
func (r *BatchRunner32) newRec() *inputRec {
	nf := r.m.Cfg.NumFeatures
	rec := &inputRec{lastX: nn.NewVec(nf)}
	for b, l := range r.q.lstms {
		if l != nil && r.m.poolFactor(b) > 1 {
			rec.sum[b] = nn.NewVec32(nf)
		}
	}
	return rec
}

// copyFrom sets rec's input side to src's; a nil src is the zero record.
func (rec *inputRec) copyFrom(src *inputRec) {
	if src == nil {
		rec.lastX.Zero()
		for b, s := range rec.sum {
			s.Zero()
			rec.n[b] = 0
		}
		return
	}
	copy(rec.lastX, src.lastX)
	for b, s := range rec.sum {
		copy(s, src.sum[b])
	}
	rec.n = src.n
}

// zero reports whether rec holds the zero record, bit for bit.
func (rec *inputRec) zero() bool {
	if rec.n != [numBranches]int{} {
		return false
	}
	for _, v := range rec.lastX {
		if math.Float64bits(v) != 0 {
			return false
		}
	}
	for _, s := range rec.sum {
		for _, v := range s {
			if math.Float32bits(v) != 0 {
				return false
			}
		}
	}
	return true
}

// sameInput reports whether a and b hold bit-equal input sides, nil being
// the zero record. The counts are compared first: they are what usually
// tells two streams' records apart.
func sameInput(a, b *inputRec) bool {
	switch {
	case a == b:
		return true
	case a == nil:
		return b.zero()
	case b == nil:
		return a.zero()
	case a.n != b.n:
		return false
	}
	for b2, s := range a.sum {
		for j, v := range s {
			if math.Float32bits(v) != math.Float32bits(b.sum[b2][j]) {
				return false
			}
		}
	}
	for j, v := range a.lastX {
		if math.Float64bits(v) != math.Float64bits(b.lastX[j]) {
			return false
		}
	}
	return true
}

// own returns the record the rows of one run — adjacent rows of a Push fed
// one slice, with bit-equal records — advance on, held by those rows and
// no other stream, so the run can mutate it. A record some of whose
// holders are not in the run (they are not listed in this Push, or are
// listed with another input) stays theirs: the run takes a copy. Of
// several records the run holds outright, the first is kept and the rest
// are dropped, which merges equal records (a restored group, or streams
// fed one input from their first Push on).
func (r *BatchRunner32) own(run []*Stream) *inputRec {
	r.unit++
	for _, s := range run {
		if rec := s.rec; rec != nil {
			if rec.unit != r.unit {
				rec.unit, rec.listed = r.unit, 0
			}
			rec.listed++
		}
	}
	var keep *inputRec
	for _, s := range run {
		if rec := s.rec; rec != nil && rec.listed == rec.refs {
			keep = rec
			break
		}
	}
	if keep == nil {
		keep = r.newRec()
		keep.copyFrom(run[0].rec)
	}
	for _, s := range run {
		if s.rec != keep {
			s.dropRec()
			s.rec = keep
			keep.refs++
		}
	}
	return keep
}

// decodeRec returns the lane's scratch record, zeroed, for a restore to
// decode a stream's input side into before adopt.
func (r *BatchRunner32) decodeRec() *inputRec {
	if r.decoded == nil {
		r.decoded = r.newRec()
	}
	r.decoded.copyFrom(nil)
	return r.decoded
}

// adopt gives a restored stream the record holding in's input side: none
// for the zero record, the previous restore's when it is bit-equal — the
// channels of a customer restore one after another, so a restored group
// shares as it did live — else a copy of in.
func (r *BatchRunner32) adopt(in *inputRec) *inputRec {
	if in.zero() {
		return nil
	}
	if !sameInput(r.restored, in) {
		r.restored = r.newRec()
		r.restored.copyFrom(in)
	}
	r.restored.refs++
	return r.restored
}

// dropRec releases the stream's hold on its record.
func (s *Stream) dropRec() {
	if s.rec != nil {
		s.rec.refs--
		s.rec = nil
	}
}
