package core

import (
	"fmt"
	"io"

	"github.com/xatu-go/xatu/internal/nn"
)

// BatchRunner32 is the serving lane of one *Model: it creates the lane's
// streams, carving their float32 state from its arena so gather/scatter
// walks nearly-linear memory instead of pointer-chasing per customer, and
// it alone advances them, through the quantized panel kernels. Streams own
// state; the lane owns every gather buffer and all kernel scratch.
//
// Push is batch-size-invariant bit for bit: a stream ends in the same
// state, and reports the same survival value, whether it stepped alone or
// among any others (the panel kernels preserve per-row arithmetic order;
// see nn.PanelMat32) — so a lone stream is simply a batch of one
// (Stream.Push, Stream.PushMissing). Against the float64 oracle parity is
// behavioral, not bitwise: survival tracks it within the calibrated
// tolerance (TestStream32TracksFloat64).
//
// Push does the input-side work once per distinct input, not once per
// stream. Narrowing to float32, listing the non-zero columns and W_x·x of
// every unpooled branch run once per input slice: adjacent rows whose
// xs[i] are one and the same slice (same first element, same length — what
// a Monitor passes for the channels of one customer) share them. Copying
// the last input, adding the pooling sums and, when a pool fills, its mean
// and W_x·mean run once per input record (inputRec), which such rows share
// while their input sides are bit-equal. Sharing changes no bit: equal
// inputs project to equal bits either way (TestLaneSharedInputInvariant,
// TestLaneRecordSharingInvariant).
//
// A BatchRunner32 is not safe for concurrent use.
type BatchRunner32 struct {
	m     *Model
	q     *Quantized32
	arena arena
	// off[b] is where branch b's h starts in a stream's state slab; its c
	// follows Hidden floats later.
	off [numBranches]int
	// The distinct inputs of one Push, narrowed, in the leading rows of
	// xin: row src[i] is stream i's. nz is the non-zero column list of the
	// row being projected and mean a filled pool's mean. pre[b] holds the
	// projections branch b steps on: of the distinct inputs for an
	// unpooled branch, of the means of the pools that filled for a pooled
	// one.
	xin  nn.Batch32
	src  []int
	nz   []int32
	mean nn.Vec32
	pre  [numBranches]nn.Batch32
	// per-branch gather buffers: hidden/cell rows and the indices (into
	// the caller's streams slice) of the rows' owners; for a pooled branch
	// psrc[b][n] is the row of pre[b] that row n steps on.
	hb, cb [numBranches]nn.Batch32
	idx    [numBranches][]int
	psrc   [numBranches][]int
	sc     nn.BatchScratch32
	concat nn.Batch32
	zs     nn.Batch32
	// epoch numbers the Push in progress; a stream carrying the current
	// number has already been listed in it. unit numbers the runs of rows
	// that own a record (own). A restore decodes into decoded, and
	// restored is the record the last restored stream took (adopt).
	epoch    uint64
	unit     uint64
	decoded  *inputRec
	restored *inputRec
	stats    LaneStats
	// the batch of one behind Stream.Push/PushMissing, the inputs of a
	// missing push, and the all-zero input a missing step feeds under
	// MissingZero (never written).
	one    [1]*Stream
	oneX   [1][]float64
	oneOut [1]float64
	missXs [][]float64
	missX  nn.Vec
}

// LaneStats counts what a lane has done since it was made. Rows ÷
// Projections is the input sharing a deployment really gets (6 with one
// model for all six attack types, 1 with a model per type);
// NonzeroColumns ÷ (Projections × NumFeatures) is the live input density —
// it falls to zero when an exporter or an auxiliary feed goes dark.
type LaneStats struct {
	Rows           uint64 // stream-steps advanced
	Projections    uint64 // distinct input slices narrowed and projected
	NonzeroColumns uint64 // non-zero features over those distinct inputs
}

// Stats returns the lane's counters.
func (r *BatchRunner32) Stats() LaneStats { return r.stats }

// NewBatchRunner32 returns a lane over m, quantizing the model (cached on
// the Model) up front so corrupt weights fail here, at load/construction
// time, not mid-serving.
func NewBatchRunner32(m *Model) (*BatchRunner32, error) {
	q, err := m.Quantized32()
	if err != nil {
		return nil, err
	}
	nf := m.Cfg.NumFeatures
	r := &BatchRunner32{m: m, q: q, missX: nn.NewVec(nf), mean: nn.NewVec32(nf)}
	off := 0
	for b, l := range q.lstms {
		if l != nil {
			r.off[b] = off
			off += 2 * m.Cfg.Hidden
		}
	}
	return r, nil
}

// Model returns the shared model the runner steps streams through.
func (r *BatchRunner32) Model() *Model { return r.m }

// NewStream returns a fresh serving stream on this lane: recurrent state
// in one contiguous arena slab. Its input record comes with its first
// Push, shared with the adjacent rows fed the same slice.
func (r *BatchRunner32) NewStream() *Stream {
	return &Stream{
		m:       r.m,
		lane:    r,
		state:   r.arena.alloc(r.m.activeBranches() * 2 * r.m.Cfg.Hidden),
		hazards: make([]float64, r.m.Cfg.Window),
	}
}

// RestoreStream reads an XSC1 checkpoint into a serving stream on this
// lane. A float32 round-trip is exact (the checkpoint stores widened
// float32 values); a checkpoint written by a float64 stream narrows, which
// stays within the precision parity tolerance. Streams restored one after
// another with bit-equal input sides share one record, as they did live.
func (r *BatchRunner32) RestoreStream(rd io.Reader) (*Stream, error) {
	return restoreStream(rd, r.m, r.NewStream)
}

// pushOne is Push for a batch of one, through lane-owned slices so the
// lone step allocates nothing.
func (r *BatchRunner32) pushOne(s *Stream, x []float64) float64 {
	r.one[0], r.oneX[0] = s, x
	r.step(r.one[:], r.oneX[:], r.oneOut[:], true)
	return r.oneOut[0]
}

// Push advances stream i with input xs[i] for every i, writing the
// survival probability into out[i] and returning out. A nil or
// wrong-length out is reallocated; callers wanting an allocation-free
// step pass a slice of len(streams).
func (r *BatchRunner32) Push(streams []*Stream, xs [][]float64, out []float64) []float64 {
	if len(xs) != len(streams) {
		panic(fmt.Sprintf("core: BatchRunner32.Push with %d streams, %d inputs", len(streams), len(xs)))
	}
	if len(out) != len(streams) {
		out = make([]float64, len(streams))
	}
	r.step(streams, xs, out, true)
	return out
}

// PushMissing advances every stream one step with no telemetry, feeding
// each the input policy substitutes (Stream.PushMissing), and writes the
// survival probabilities into out as Push does. Streams sharing an input
// record are fed one slice, so they go on sharing it: a Monitor steps a
// customer's channels through one PushMissing.
func (r *BatchRunner32) PushMissing(streams []*Stream, policy MissingPolicy, out []float64) []float64 {
	if len(out) != len(streams) {
		out = make([]float64, len(streams))
	}
	xs := r.missXs[:0]
	for _, s := range streams {
		x := r.missX
		if policy == MissingCarry && s.rec != nil {
			x = s.rec.lastX
		}
		xs = append(xs, x)
	}
	r.missXs = xs
	r.step(streams, xs, out, false)
	return out
}

// validate panics unless every row is steppable: a stream of this lane,
// listed once, with an input of the model's width. It runs before step
// mutates anything, so a refused Push leaves every stream as it was.
func (r *BatchRunner32) validate(streams []*Stream, xs [][]float64) {
	r.epoch++
	for i, s := range streams {
		if s.lane != r {
			panic("core: BatchRunner32.Push with a stream of another lane")
		}
		if len(xs[i]) != r.m.Cfg.NumFeatures {
			panic(fmt.Sprintf("core: BatchRunner32.Push input %d has %d features, model has %d", i, len(xs[i]), r.m.Cfg.NumFeatures))
		}
		if s.pushEpoch == r.epoch {
			panic(fmt.Sprintf("core: BatchRunner32.Push lists the stream at %d twice", i))
		}
		s.pushEpoch = r.epoch
	}
}

// sameSlice reports whether a and b are one slice, not merely equal.
func sameSlice(a, b []float64) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// step is Push proper. observed is false for synthesized missing-step
// inputs, which must not overwrite the streams' last real input.
func (r *BatchRunner32) step(streams []*Stream, xs [][]float64, out []float64, observed bool) {
	B := len(streams)
	if B == 0 {
		return
	}
	r.validate(streams, xs)
	cfg := r.m.Cfg
	// Input side, once per distinct input slice. The scratch holds those
	// rows only: a Push of many customers lists six rows per input.
	distinct := 1
	for i := 1; i < B; i++ {
		if !sameSlice(xs[i], xs[i-1]) {
			distinct++
		}
	}
	r.xin.Resize(distinct, cfg.NumFeatures)
	for b, l := range r.q.lstms {
		if l != nil {
			r.pre[b].Resize(distinct, l.Wx.Padded())
			r.idx[b], r.psrc[b] = r.idx[b][:0], r.psrc[b][:0]
		}
	}
	src := r.src[:0]
	distinct = 0
	for i, s := range streams {
		s.countStep()
		if i > 0 && sameSlice(xs[i], xs[i-1]) {
			src = append(src, distinct-1)
			continue
		}
		x := r.xin.Row(distinct)
		nn.Narrow32(xs[i], x)
		r.nz = nn.NonZero32(x, r.nz)
		r.stats.NonzeroColumns += uint64(len(r.nz))
		for b, l := range r.q.lstms {
			if l != nil && r.m.poolFactor(b) <= 1 {
				l.Wx.MulVecNZ32(x, r.nz, r.pre[b].Row(distinct))
			}
		}
		src = append(src, distinct)
		distinct++
	}
	r.src = src
	r.stats.Rows += uint64(B)
	r.stats.Projections += uint64(distinct)
	// Input records, once per run of adjacent rows fed one slice whose
	// records are bit-equal: the last input, the pooling sums and, for each
	// pool that fills, its mean's projection.
	filled := [numBranches]int{}
	for lo := 0; lo < B; {
		hi := lo + 1
		for hi < B && src[hi] == src[lo] && sameInput(streams[hi].rec, streams[hi-1].rec) {
			hi++
		}
		rec := r.own(streams[lo:hi])
		if observed {
			copy(rec.lastX, xs[lo])
		}
		for b, sum := range rec.sum {
			if sum == nil {
				continue
			}
			sum.Add(r.xin.Row(src[lo]))
			rec.n[b]++
			k := r.m.poolFactor(b)
			if rec.n[b] < k {
				continue
			}
			// The pool steps on its mean — the oracle's expression in
			// float32, sum[j] * (1/k) — and restarts.
			inv := 1 / float32(k)
			for j, v := range sum {
				r.mean[j] = v * inv
			}
			sum.Zero()
			rec.n[b] = 0
			r.nz = nn.NonZero32(r.mean, r.nz)
			if filled[b] == r.pre[b].Rows {
				// Unequal records split one input's rows: more pools fill
				// than there are inputs.
				r.pre[b].Data = append(r.pre[b].Data, make([]float32, r.pre[b].Cols)...)
				r.pre[b].Rows++
			}
			r.q.lstms[b].Wx.MulVecNZ32(r.mean, r.nz, r.pre[b].Row(filled[b]))
			for i := lo; i < hi; i++ {
				r.idx[b] = append(r.idx[b], i)
				r.psrc[b] = append(r.psrc[b], filled[b])
			}
			filled[b]++
		}
		lo = hi
	}
	for b, l := range r.q.lstms {
		if l == nil {
			continue
		}
		src := r.psrc[b]
		if r.m.poolFactor(b) <= 1 {
			for i := range streams {
				r.idx[b] = append(r.idx[b], i)
			}
			src = r.src
		}
		idx := r.idx[b]
		if len(idx) == 0 {
			continue
		}
		r.hb[b].Resize(len(idx), cfg.Hidden)
		r.cb[b].Resize(len(idx), cfg.Hidden)
		h, c, end := r.off[b], r.off[b]+cfg.Hidden, r.off[b]+2*cfg.Hidden
		for n, i := range idx {
			st := streams[i].state
			copy(r.hb[b].Row(n), st[h:c])
			copy(r.cb[b].Row(n), st[c:end])
		}
		l.StepProjected32(&r.hb[b], &r.cb[b], &r.pre[b], src, &r.sc)
		for n, i := range idx {
			s := streams[i]
			copy(s.state[h:c], r.hb[b].Row(n))
			copy(s.state[c:end], r.cb[b].Row(n))
			s.seen[b] = true
		}
	}
	// Head over every stream's latest states, one batched pass.
	hd := cfg.Hidden
	r.concat.Resize(B, hd*r.m.activeBranches())
	for i, s := range streams {
		row := r.concat.Row(i)
		off := 0
		for b, l := range r.q.lstms {
			if l == nil {
				continue
			}
			copy(row[off:off+hd], s.state[r.off[b]:r.off[b]+hd])
			off += hd
		}
	}
	r.q.head.ForwardBatch32(&r.concat, &r.zs)
	for i, s := range streams {
		out[i] = s.recordHazard(nn.Softplus(float64(r.zs.Row(i)[0])))
	}
}
