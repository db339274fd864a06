package engine

import (
	"math"
	"math/bits"
	"net/netip"
	"time"

	"github.com/xatu-go/xatu/internal/ddos"
)

// The WAL (supervisor.go) logs what the monitor consumed, not the records
// it came from: a step is its normalized feature vector and the match bit
// of every attack type whose signature check ran in the alert loop. Replay
// feeds those back through observeBatch with extraction skipped, so a
// rebuilt monitor is the live one by construction — whatever the
// extractor's registries have learned since — and the shard can recycle a
// step's record buffer the moment the step is handled.

// walEntry is one replayable telemetry message. A step's vector is
// words[off:off+n] of the shard's vector arena, dim floats long.
type walEntry struct {
	op       opcode
	atype    ddos.AttackType // opEnd
	hits     uint8           // opStep: signature checks that matched, bit per attack type
	customer netip.Addr
	at       time.Time
	off, n   int
	dim      int
}

// Every attack type's match bit fits walEntry.hits.
var _ [8 - ddos.NumAttackTypes]struct{}

// vecArena is the WAL's store of step vectors: one pointer-free ring of
// 64-bit words that the GC never scans, grown (by the shard, which can
// relocate the entries) until a full WAL fits and never after, so logging a
// step allocates nothing once the shard is warm. Vectors are appended at
// tail and released from head in log order; a vector that does not fit
// before the end of the ring starts again at word 0, and the words it
// skipped count as live until head passes them.
type vecArena struct {
	words      []uint64
	head, tail int
	wrapped    bool // the live words run from head to the end, then from 0 to tail
}

// vecArenaMin is the arena's first size in words: a few quiet vectors'
// worth (≈100 of 273 features are non-zero on a quiet step).
const vecArenaMin = 4096

// alloc reserves n words at tail and returns their offset, or false when
// they do not fit without growing the ring. n == 0 always fits. A caller
// that used fewer gives the rest back by setting tail.
func (a *vecArena) alloc(n int) (int, bool) {
	switch {
	case a.wrapped:
		if a.tail+n > a.head {
			return 0, false
		}
	case a.tail+n <= len(a.words):
	case n <= a.head:
		a.tail, a.wrapped = 0, true
	default:
		return 0, false
	}
	off := a.tail
	a.tail += n
	return off, true
}

// release frees every word before head, the offset of the oldest vector
// still logged.
func (a *vecArena) release(head int) {
	if a.wrapped && head < a.head {
		a.wrapped = false
	}
	a.head = head
}

// reset empties the arena, keeping its storage.
func (a *vecArena) reset() { a.head, a.tail, a.wrapped = 0, 0, false }

// maskWords is the length of a dim-feature vector's non-zero bitmap.
func maskWords(dim int) int { return (dim + 63) / 64 }

// maxVecWords is the most words a dim-feature vector encodes to.
func maxVecWords(dim int) int { return maskWords(dim) + dim }

// encodeVec writes x at the start of dst, which has room for
// maxVecWords(len(x)) words, and returns how many it wrote: a bitmap of
// the elements whose bit pattern is not all zero, then those elements'
// bits in index order. -0 and every NaN payload are non-zero, so every
// float64 round-trips bit for bit.
func encodeVec(dst []uint64, x []float64) int {
	nm := maskWords(len(x))
	k := nm
	for w := 0; w < nm; w++ {
		var m uint64
		for j, v := range x[w*64 : min(w*64+64, len(x))] {
			if b := math.Float64bits(v); b != 0 {
				m |= 1 << uint(j)
				dst[k] = b
				k++
			}
		}
		dst[w] = m
	}
	return k
}

// decodeVec expands src, a dim-feature vector written by encodeVec, into
// dst (grown if needed) and returns it.
func decodeVec(dst []float64, src []uint64, dim int) []float64 {
	if cap(dst) < dim {
		dst = make([]float64, dim)
	}
	dst = dst[:dim]
	clear(dst)
	mask, vals := src[:maskWords(dim)], src[maskWords(dim):]
	k := 0
	for w, m := range mask {
		for m != 0 {
			dst[w*64+bits.TrailingZeros64(m)] = math.Float64frombits(vals[k])
			k++
			m &= m - 1
		}
	}
	return dst
}

// walAppend logs one handled message — for a step, the vector x the
// monitor pushed and its match bits — evicting the oldest entry when the
// ring is full. Evicted entries leave the replay window: their effect
// survives only in the live monitor, so they become part of the loss bound
// if the shard crashes before the next snapshot re-bases the log.
func (s *shard) walAppend(msg *message, x []float64, hits uint8) {
	if len(s.wal) == 0 {
		return
	}
	if s.walN == len(s.wal) {
		s.walHead = (s.walHead + 1) % len(s.wal)
		s.walN--
		s.walEvicted++
		s.walDropped.Add(1)
		if s.walN == 0 {
			s.vecs.reset()
		} else {
			s.vecs.release(s.wal[s.walHead].off)
		}
	}
	n := 0
	if x != nil {
		n = maxVecWords(len(x))
	}
	off, ok := s.vecs.alloc(n)
	if !ok {
		s.walGrow(n)
		off, _ = s.vecs.alloc(n)
	}
	if x != nil {
		n = encodeVec(s.vecs.words[off:off+n], x)
		s.vecs.tail = off + n
	}
	s.wal[(s.walHead+s.walN)%len(s.wal)] = walEntry{op: msg.op, atype: msg.atype, hits: hits,
		customer: msg.customer, at: msg.at, off: off, n: n, dim: len(x)}
	s.walN++
}

// walGrow moves the logged vectors, oldest first, to the start of a larger
// arena with room for n more words. The arena only grows while a vector
// fails to fit, which stops once it spans the WAL's largest working set.
func (s *shard) walGrow(n int) {
	live := n
	for i := 0; i < s.walN; i++ {
		live += s.wal[(s.walHead+i)%len(s.wal)].n
	}
	size := 2 * len(s.vecs.words)
	if size == 0 {
		size = vecArenaMin
	}
	for size < live {
		size *= 2
	}
	words := make([]uint64, size)
	pos := 0
	for i := 0; i < s.walN; i++ {
		en := &s.wal[(s.walHead+i)%len(s.wal)]
		copy(words[pos:], s.vecs.words[en.off:en.off+en.n])
		en.off = pos
		pos += en.n
	}
	s.vecs = vecArena{words: words, tail: pos}
}

// walReset empties the log: everything in it is in the shard's new
// recovery basis, or describes state that was replaced.
func (s *shard) walReset() {
	s.walHead, s.walN, s.walEvicted = 0, 0, 0
	s.vecs.reset()
}

// walReplay re-applies the logged messages to mon in arrival order.
func (s *shard) walReplay(mon *Monitor) (replayed int) {
	var x []float64
	for i := 0; i < s.walN; i++ {
		en := &s.wal[(s.walHead+i)%len(s.wal)]
		switch en.op {
		case opStep:
			x = decodeVec(x, s.vecs.words[en.off:en.off+en.n], en.dim)
			mon.replayStep(en.customer, en.at, x, en.hits)
		case opMissing:
			mon.ObserveMissing(en.customer, en.at)
		case opEnd:
			mon.EndMitigation(en.customer, en.atype)
		}
		replayed++
	}
	return replayed
}
