package compact

import (
	"math/rand"
	"slices"
	"testing"
)

// TestIndexMatchesMap runs random Sets, Gets and Clears against a Go map,
// over words that differ only in their low bits, only in their high bits,
// and at random, growing the table through several doublings.
func TestIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := func(i int) uint32 {
		switch i % 3 {
		case 0:
			return uint32(rng.Intn(64))
		case 1:
			return uint32(rng.Intn(64)) << 24
		}
		return rng.Uint32()
	}
	var x Index
	want := map[uint32]int32{}
	for i := 0; i < 20000; i++ {
		w := words(i)
		switch {
		case i%5000 == 4999:
			x.Clear()
			clear(want)
		case rng.Intn(2) == 0:
			v := int32(rng.Intn(1 << 20))
			x.Set(w, v)
			want[w] = v
		default:
			got, ok := x.Get(w)
			if wv, wok := want[w]; ok != wok || got != wv {
				t.Fatalf("op %d: Get(%#x) = %d, %v; want %d, %v", i, w, got, ok, wv, wok)
			}
		}
		if x.Len() != len(want) {
			t.Fatalf("op %d: Len = %d, want %d", i, x.Len(), len(want))
		}
	}
	got := x.Words(nil)
	slices.Sort(got)
	var keys []uint32
	for w := range want {
		keys = append(keys, w)
	}
	slices.Sort(keys)
	if !slices.Equal(got, keys) {
		t.Fatalf("Words = %d words, want %d", len(got), len(keys))
	}
	var zero Index
	if _, ok := zero.Get(7); ok || zero.Len() != 0 || len(zero.Words(nil)) != 0 {
		t.Fatal("the zero Index must be empty")
	}
}
