package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"github.com/xatu-go/xatu/internal/nn"
)

// Stream checkpointing. A restarted detector that rebuilds its Streams
// from scratch is blind for a full Window of steps (no alerts can fire
// while warming up); checkpointing the complete online state — LSTM hidden
// and cell vectors, pooling buffers, the hazard ring, and the last real
// input — lets a restart resume bitwise-identically to an uninterrupted
// run.
//
// Format (all little-endian; see DESIGN.md §"Fault model" for versioning):
//
//	magic "XSC1" | uint16 version
//	int32 numFeatures, hidden, window, poolShort, poolMed, poolLong
//	uint8 branch mask (bit b set when branch b is enabled)
//	per enabled branch: vec h | vec c | vec bufSum | int32 bufN | uint8 seen
//	float64[window] hazards | int32 hazPos | int32 hazCount | int32 steps
//	vec lastX
//
// where "vec" is uint8 present flag + int32 length + float64 payload.
// Floats round-trip through math.Float64bits, so restore is bit-exact.

var streamCkptMagic = [4]byte{'X', 'S', 'C', '1'}

const streamCkptVersion = 1

// Checkpoint serializes the stream's full online state to w, in one
// write.
func (s *Stream) Checkpoint(w io.Writer) error {
	_, err := w.Write(s.AppendCheckpoint(make([]byte, 0, s.checkpointLen())))
	return err
}

// checkpointLen is the length of the stream's XSC1 checkpoint.
func (s *Stream) checkpointLen() int {
	cfg := s.m.Cfg
	vec := func(n int) int { return 5 + 8*n }
	branch := 2*vec(cfg.Hidden) + vec(cfg.NumFeatures) + 5
	return 31 + s.m.activeBranches()*branch + 8*cfg.Window + 12 + vec(cfg.NumFeatures)
}

// AppendCheckpoint appends the stream's XSC1 checkpoint to dst and returns
// the extended buffer, so a caller checkpointing many streams encodes them
// all through one buffer. A serving stream's float32 state is widened as
// it is written: widening is exact, so the format (and every consumer of
// it) is precision-agnostic, and restore narrows back losslessly. Its
// pooling sums and last input are its input record's; an unpooled
// branch's sum, which nothing adds to, and a missing record's fields are
// the zero vectors the oracle keeps.
func (s *Stream) AppendCheckpoint(dst []byte) []byte {
	le := binary.LittleEndian
	cfg := s.m.Cfg
	dst = append(dst, streamCkptMagic[:]...)
	dst = le.AppendUint16(dst, streamCkptVersion)
	for _, v := range [...]int{cfg.NumFeatures, cfg.Hidden, cfg.Window, cfg.PoolShort, cfg.PoolMed, cfg.PoolLong} {
		dst = appendI32(dst, v)
	}
	dst = append(dst, s.m.branchMask())
	hd, nf := cfg.Hidden, cfg.NumFeatures
	for b, l := range s.m.lstms {
		if l == nil {
			continue
		}
		if o := s.o; o != nil {
			dst = appendVec(dst, o.h[b])
			dst = appendVec(dst, o.c[b])
			dst = appendVec(dst, o.bufSum[b])
			dst = appendI32(dst, o.bufN[b])
		} else {
			h := s.state[s.lane.off[b]:]
			dst = appendVec32(dst, h[:hd])
			dst = appendVec32(dst, h[hd:2*hd])
			if s.rec != nil && s.rec.sum[b] != nil {
				dst = appendVec32(dst, s.rec.sum[b])
				dst = appendI32(dst, s.rec.n[b])
			} else {
				dst = appendZeroVec(dst, nf)
				dst = appendI32(dst, 0)
			}
		}
		if s.seen[b] {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	for _, h := range s.hazards {
		dst = le.AppendUint64(dst, math.Float64bits(h))
	}
	dst = appendI32(dst, s.hazPos)
	dst = appendI32(dst, s.hazCount)
	dst = appendI32(dst, s.steps)
	switch {
	case s.o != nil:
		return appendVec(dst, s.o.lastX)
	case s.rec != nil:
		return appendVec(dst, s.rec.lastX)
	default:
		return appendZeroVec(dst, nf)
	}
}

func appendI32(dst []byte, v int) []byte {
	return binary.LittleEndian.AppendUint32(dst, uint32(int32(v)))
}

// appendVec, appendVec32 and appendZeroVec write a present "vec": flag,
// length, float64 payload.
func appendVec(dst []byte, v nn.Vec) []byte {
	dst = appendI32(append(dst, 1), len(v))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
	}
	return dst
}

func appendVec32(dst []byte, v nn.Vec32) []byte {
	dst = appendI32(append(dst, 1), len(v))
	for _, x := range v {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(float64(x)))
	}
	return dst
}

func appendZeroVec(dst []byte, n int) []byte {
	dst = appendI32(append(dst, 1), n)
	end := len(dst) + 8*n
	dst = slices.Grow(dst, 8*n)[:end]
	clear(dst[end-8*n:])
	return dst
}

// RestoreStream reads a checkpoint written by Checkpoint and returns a
// float64 oracle stream over m, which must have the same architecture
// (feature width, hidden size, window, pooling, enabled branches) as the
// checkpointing model. The restored stream continues bitwise-identically.
func RestoreStream(r io.Reader, m *Model) (*Stream, error) {
	return restoreStream(r, m, func() *Stream { return NewStream(m) })
}

// restoreStream decodes an XSC1 checkpoint into the stream fresh returns:
// an oracle stream takes the float64 vectors as they are, a serving stream
// narrows them into its arena slab.
func restoreStream(r io.Reader, m *Model, fresh func() *Stream) (*Stream, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("core: reading checkpoint magic: %w", err)
	}
	if magic != streamCkptMagic {
		return nil, fmt.Errorf("core: not a stream checkpoint (magic %q)", magic)
	}
	cr := &ckptReader{r: r}
	if v := cr.u16(); cr.err == nil && v != streamCkptVersion {
		return nil, fmt.Errorf("core: unsupported stream checkpoint version %d", v)
	}
	cfg := m.Cfg
	want := []struct {
		name string
		val  int
	}{
		{"NumFeatures", cfg.NumFeatures}, {"Hidden", cfg.Hidden}, {"Window", cfg.Window},
		{"PoolShort", cfg.PoolShort}, {"PoolMed", cfg.PoolMed}, {"PoolLong", cfg.PoolLong},
	}
	for _, f := range want {
		got := cr.i32()
		if cr.err != nil {
			return nil, cr.err
		}
		if got != f.val {
			return nil, fmt.Errorf("core: checkpoint %s=%d, model has %d", f.name, got, f.val)
		}
	}
	mask := m.branchMask()
	if got := cr.u8(); cr.err == nil && got != mask {
		return nil, fmt.Errorf("core: checkpoint branch mask %03b, model has %03b", got, mask)
	}
	s := fresh()
	// Vectors are always present in checkpoints taken since streams began
	// preallocating their state; absent vectors (older checkpoints, or a
	// never-pushed lastX) mean the zero state fresh already installed. An
	// oracle stream takes the float64 vectors as they are. A serving stream
	// narrows h and c into its slab, and its pooling sums, counts and last
	// input into the lane's scratch record; it adopts one equal to that.
	o, in := s.o, (*inputRec)(nil)
	if o == nil {
		in = s.lane.decodeRec()
	}
	set := func(dst *nn.Vec, v nn.Vec) {
		if v != nil {
			*dst = v
		}
	}
	narrow := func(dst nn.Vec32, v nn.Vec) {
		if v != nil {
			nn.Narrow32(v, dst)
		}
	}
	var bufN [numBranches]int
	hd := cfg.Hidden
	for b, l := range m.lstms {
		if l == nil {
			continue
		}
		h, c, sum := cr.vec(hd), cr.vec(hd), cr.vec(cfg.NumFeatures)
		bufN[b] = cr.i32()
		s.seen[b] = cr.u8() != 0
		if o != nil {
			set(&o.h[b], h)
			set(&o.c[b], c)
			set(&o.bufSum[b], sum)
			continue
		}
		st := s.state[s.lane.off[b]:]
		narrow(st[:hd], h)
		narrow(st[hd:2*hd], c)
		if in.sum[b] != nil { // an unpooled branch's sum, which nothing adds to, is dropped
			narrow(in.sum[b], sum)
		}
	}
	for i := range s.hazards {
		s.hazards[i] = cr.f64()
	}
	s.hazPos = cr.i32()
	s.hazCount = cr.i32()
	s.steps = cr.i32()
	if lx := cr.vec(cfg.NumFeatures); lx != nil {
		if o != nil {
			o.lastX = lx
		} else {
			copy(in.lastX, lx)
		}
	}
	if cr.err != nil {
		return nil, fmt.Errorf("core: reading stream checkpoint: %w", cr.err)
	}
	if s.hazPos < 0 || s.hazPos >= len(s.hazards) || s.hazCount < 0 || s.hazCount > len(s.hazards) || s.steps < 0 {
		return nil, fmt.Errorf("core: corrupt stream checkpoint (hazPos=%d hazCount=%d steps=%d)", s.hazPos, s.hazCount, s.steps)
	}
	for b, n := range bufN {
		if n < 0 || n >= maxI(1, m.poolFactor(b)) {
			return nil, fmt.Errorf("core: corrupt stream checkpoint (bufN[%d]=%d)", b, n)
		}
	}
	if o != nil {
		o.bufN = bufN
	} else {
		in.n = bufN
		s.rec = s.lane.adopt(in)
	}
	// The rolling-sum state is derived, not serialized: rebuild it from the
	// ring so the restored stream's survival outputs continue bit-exactly.
	s.rebuildHazardSums()
	return s, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ckptReader reads what AppendCheckpoint writes; after the first error every read returns
// zero values and the error sticks.
type ckptReader struct {
	r   io.Reader
	err error
}

func (c *ckptReader) read(buf []byte) bool {
	if c.err != nil {
		return false
	}
	if _, err := io.ReadFull(c.r, buf); err != nil {
		c.err = err
		return false
	}
	return true
}

func (c *ckptReader) u8() uint8 {
	var b [1]byte
	if !c.read(b[:]) {
		return 0
	}
	return b[0]
}

func (c *ckptReader) u16() uint16 {
	var b [2]byte
	if !c.read(b[:]) {
		return 0
	}
	return binary.LittleEndian.Uint16(b[:])
}

func (c *ckptReader) i32() int {
	var b [4]byte
	if !c.read(b[:]) {
		return 0
	}
	return int(int32(binary.LittleEndian.Uint32(b[:])))
}

func (c *ckptReader) f64() float64 {
	var b [8]byte
	if !c.read(b[:]) {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
}

// vec reads a vector written by appendVec, enforcing wantLen.
func (c *ckptReader) vec(wantLen int) nn.Vec {
	if c.u8() == 0 || c.err != nil {
		return nil
	}
	n := c.i32()
	if c.err != nil {
		return nil
	}
	if n != wantLen {
		c.err = fmt.Errorf("core: checkpoint vector length %d, want %d", n, wantLen)
		return nil
	}
	v := nn.NewVec(n)
	for i := range v {
		v[i] = c.f64()
	}
	return v
}
