package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

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

// Checkpoint serializes the stream's full online state to w.
func (s *Stream) Checkpoint(w io.Writer) error {
	if _, err := w.Write(streamCkptMagic[:]); err != nil {
		return err
	}
	cw := &ckptWriter{w: w}
	cw.u16(streamCkptVersion)
	cfg := s.m.Cfg
	for _, v := range []int{cfg.NumFeatures, cfg.Hidden, cfg.Window, cfg.PoolShort, cfg.PoolMed, cfg.PoolLong} {
		cw.i32(v)
	}
	var mask uint8
	for b, l := range s.m.lstms {
		if l != nil {
			mask |= 1 << b
		}
	}
	cw.u8(mask)
	for b, l := range s.m.lstms {
		if l == nil {
			continue
		}
		h, c, buf, n := s.h[b], s.c[b], s.bufSum[b], s.bufN[b]
		if s.lane != nil {
			// Widening float32 state to the checkpoint's float64 vectors is
			// exact, so the XSC1 format (and every consumer of it) is
			// precision-agnostic; restore narrows back losslessly. The
			// pooling sum is the input record's; an unpooled branch's,
			// which nothing adds to, is the zero vector the oracle keeps.
			h = s.h32[b].Widen(nil)
			c = s.c32[b].Widen(nil)
			buf, n = nn.NewVec(cfg.NumFeatures), 0
			if s.rec != nil && s.rec.sum[b] != nil {
				buf, n = s.rec.sum[b].Widen(buf), s.rec.n[b]
			}
		}
		cw.vec(h)
		cw.vec(c)
		cw.vec(buf)
		cw.i32(n)
		cw.bool(s.seen[b])
	}
	for _, h := range s.hazards {
		cw.f64(h)
	}
	cw.i32(s.hazPos)
	cw.i32(s.hazCount)
	cw.i32(s.steps)
	lastX := s.lastX
	if s.lane != nil {
		lastX = nn.NewVec(cfg.NumFeatures) // the zero record's
		if s.rec != nil {
			lastX = s.rec.lastX
		}
	}
	cw.vec(lastX)
	return cw.err
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
	var mask uint8
	for b, l := range m.lstms {
		if l != nil {
			mask |= 1 << b
		}
	}
	if got := cr.u8(); cr.err == nil && got != mask {
		return nil, fmt.Errorf("core: checkpoint branch mask %03b, model has %03b", got, mask)
	}
	s := fresh()
	// A serving stream's pooling sums, counts and last input decode into
	// the lane's scratch record, and the stream adopts one equal to it.
	var in *inputRec
	if s.lane != nil {
		in = s.lane.decodeRec()
	}
	// Vectors are always present in checkpoints taken since streams began
	// preallocating their state; absent vectors (older checkpoints, or a
	// never-pushed lastX) mean the zero state fresh already installed.
	into := func(v nn.Vec, dst64 *nn.Vec, dst32 nn.Vec32) {
		switch {
		case v == nil:
		case s.lane != nil:
			nn.Narrow32(v, dst32)
		default:
			*dst64 = v
		}
	}
	var bufN [numBranches]int
	for b, l := range m.lstms {
		if l == nil {
			continue
		}
		into(cr.vec(cfg.Hidden), &s.h[b], s.h32[b])
		into(cr.vec(cfg.Hidden), &s.c[b], s.c32[b])
		sum := cr.vec(cfg.NumFeatures)
		switch {
		case in == nil:
			into(sum, &s.bufSum[b], nil)
		case sum != nil && in.sum[b] != nil:
			// (an unpooled branch's sum, which nothing adds to, is dropped)
			nn.Narrow32(sum, in.sum[b])
		}
		bufN[b] = cr.i32()
		s.seen[b] = cr.bool()
	}
	for i := range s.hazards {
		s.hazards[i] = cr.f64()
	}
	s.hazPos = cr.i32()
	s.hazCount = cr.i32()
	s.steps = cr.i32()
	if lx := cr.vec(cfg.NumFeatures); lx != nil {
		if in != nil {
			copy(in.lastX, lx)
		} else {
			s.lastX = lx
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
	if in != nil {
		in.n = bufN
		s.rec = s.lane.adopt(in)
	} else {
		s.bufN = bufN
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

// ckptWriter accumulates the first write error, keeping the encoders flat.
type ckptWriter struct {
	w   io.Writer
	err error
}

func (c *ckptWriter) write(buf []byte) {
	if c.err == nil {
		_, c.err = c.w.Write(buf)
	}
}

func (c *ckptWriter) u8(v uint8) { c.write([]byte{v}) }
func (c *ckptWriter) bool(v bool) {
	b := uint8(0)
	if v {
		b = 1
	}
	c.u8(b)
}
func (c *ckptWriter) u16(v uint16) {
	var b [2]byte
	binary.LittleEndian.PutUint16(b[:], v)
	c.write(b[:])
}
func (c *ckptWriter) i32(v int) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(int32(v)))
	c.write(b[:])
}
func (c *ckptWriter) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	c.write(b[:])
}

func (c *ckptWriter) vec(v nn.Vec) {
	if v == nil {
		c.u8(0)
		return
	}
	c.u8(1)
	c.i32(len(v))
	for _, x := range v {
		c.f64(x)
	}
}

// ckptReader mirrors ckptWriter; after the first error every read returns
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

func (c *ckptReader) bool() bool { return c.u8() != 0 }

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

// vec reads a vector written by ckptWriter.vec, enforcing wantLen.
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
