package compact

import (
	"math/bits"
	"math/rand/v2"
)

// Index maps IPv4 words to non-negative int32 values: an open-addressing
// hash table with linear probing, at most half full, holding no pointers.
// A lookup hashes with one multiply and usually reads one slot. Each table
// draws its own odd multiplier, so no fixed set of addresses collides in
// every table. The zero Index is empty and ready to use.
type Index struct {
	slots []indexSlot // a power of two long; a zero slot is empty
	n     int
	mul   uint32
	shift uint8
}

type indexSlot struct {
	word uint32
	val  int32 // 1 + the value
}

// Len returns the number of words held.
func (x *Index) Len() int { return x.n }

// Get returns w's value.
func (x *Index) Get(w uint32) (v int32, ok bool) {
	if x.n == 0 {
		return 0, false
	}
	mask := uint32(len(x.slots) - 1)
	for i := w * x.mul >> x.shift; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s.val == 0 {
			return 0, false
		}
		if s.word == w {
			return s.val - 1, true
		}
	}
}

// Set sets w's value to v ≥ 0.
func (x *Index) Set(w uint32, v int32) {
	if 2*(x.n+1) > len(x.slots) {
		x.grow()
	}
	mask := uint32(len(x.slots) - 1)
	for i := w * x.mul >> x.shift; ; i = (i + 1) & mask {
		s := &x.slots[i]
		if s.val == 0 {
			x.n++
		} else if s.word != w {
			continue
		}
		*s = indexSlot{word: w, val: v + 1}
		return
	}
}

// grow doubles the table (to 16 slots at first) and reinserts its words.
func (x *Index) grow() {
	old := x.slots
	x.slots = make([]indexSlot, max(16, 2*len(old)))
	x.shift = uint8(32 - bits.TrailingZeros(uint(len(x.slots))))
	if x.mul == 0 {
		x.mul = rand.Uint32() | 1
	}
	x.n = 0
	for _, s := range old {
		if s.val != 0 {
			x.Set(s.word, s.val-1)
		}
	}
}

// Clear empties the table and keeps its storage.
func (x *Index) Clear() {
	clear(x.slots)
	x.n = 0
}

// Words appends the words held to dst, in no particular order.
func (x *Index) Words(dst []uint32) []uint32 {
	for _, s := range x.slots {
		if s.val != 0 {
			dst = append(dst, s.word)
		}
	}
	return dst
}
