package core

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestServingStreamFootprint pins what a serving stream costs: a struct
// of at most 128 bytes with no oracle state, made in at most two
// allocations (the struct and its hazard ring; its recurrent state comes
// from the lane's arena, whose chunks are amortised over many streams).
func TestServingStreamFootprint(t *testing.T) {
	if size := unsafe.Sizeof(Stream{}); size > 128 {
		t.Errorf("Stream is %d bytes, want ≤ 128", size)
	}
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := newLane(t, m)
	if s := r.NewStream(); s.o != nil {
		t.Error("a serving stream carries oracle state")
	}
	if allocs := testing.AllocsPerRun(100, func() { r.NewStream() }); allocs > 2 {
		t.Errorf("BatchRunner32.NewStream allocates %v/op, want ≤ 2", allocs)
	}
}

// suffixRef is the hazard-window accounting streams kept before the tail
// was summed each step: sumNew plus a suffix-sum table of the previous
// epoch, rebuilt right to left once per wrap and on restore. It is the
// reference TestHazardWindowMatchesSuffixTable holds recordHazard to.
type suffixRef struct {
	hazards, suffix  []float64
	hazPos, hazCount int
	sumNew           float64
}

func newSuffixRef(window int) *suffixRef {
	return &suffixRef{hazards: make([]float64, window), suffix: make([]float64, window+1)}
}

func (r *suffixRef) record(lam float64) float64 {
	r.hazards[r.hazPos] = lam
	r.sumNew += lam
	r.hazPos++
	if r.hazCount < len(r.hazards) {
		r.hazCount++
	}
	var total float64
	if r.hazPos == len(r.hazards) {
		r.hazPos = 0
		total = r.sumNew
		r.rebuildSuffix(0)
		r.sumNew = 0
	} else {
		total = r.sumNew + r.suffix[r.hazPos]
	}
	return math.Exp(-total)
}

func (r *suffixRef) rebuildSuffix(from int) {
	r.suffix[len(r.hazards)] = 0
	for i := len(r.hazards) - 1; i >= from; i-- {
		r.suffix[i] = r.hazards[i] + r.suffix[i+1]
	}
}

// restore is the old rebuildHazardSums: the table and sumNew from the
// ring and position alone.
func (r *suffixRef) restore() {
	for i := 0; i < r.hazPos; i++ {
		r.suffix[i] = 0
	}
	r.rebuildSuffix(r.hazPos)
	r.sumNew = 0
	for i := 0; i < r.hazPos; i++ {
		r.sumNew += r.hazards[i]
	}
}

func (r *suffixRef) reset() {
	clear(r.hazards)
	clear(r.suffix)
	r.hazPos, r.hazCount, r.sumNew = 0, 0, 0
}

// hazardSample draws a hazard for the window tests: zeros, subnormals,
// values large enough to absorb their neighbours' low bits, and ordinary
// softplus-sized values.
func hazardSample(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 2:
		if rng.Intn(4) == 0 {
			return math.Ldexp(1+rng.Float64(), 6+rng.Intn(4)) // 64 … 1024
		}
		return 1e-3 * rng.Float64()
	default:
		return rng.ExpFloat64()
	}
}

// TestHazardWindowMatchesSuffixTable holds the per-step tail sum to the
// suffix table it replaced: over seven windows of seeded hazards, with a
// Reset and a checkpoint/restore at every ring position, an oracle and a
// serving stream must report survival values bit-equal to the table's.
func TestHazardWindowMatchesSuffixTable(t *testing.T) {
	for _, window := range []int{1, 8, 30} {
		cfg := tinyConfig()
		cfg.Window = window
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lane := newLane(t, m)
		streams := []struct {
			name    string
			s       *Stream
			restore func(io.Reader) (*Stream, error)
		}{
			{"oracle", NewStream(m), func(r io.Reader) (*Stream, error) { return RestoreStream(r, m) }},
			{"serving", lane.NewStream(), lane.RestoreStream},
		}
		ref := newSuffixRef(window)
		rng := rand.New(rand.NewSource(int64(window)))
		for step := 0; step < 7*window+3; step++ {
			lam := hazardSample(rng)
			want := ref.record(lam)
			for _, st := range streams {
				if got := st.s.recordHazard(lam); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("window %d, %s, step %d (hazPos %d): survival %v, suffix table %v", window, st.name, step, ref.hazPos, got, want)
				}
			}
			switch {
			case step == 3*window+window/2:
				ref.reset()
				for _, st := range streams {
					st.s.Reset()
				}
			case step >= 5*window && step < 6*window: // every ring position once
				ref.restore()
				for i, st := range streams {
					s, err := st.restore(bytes.NewReader(checkpointBytes(t, st.s)))
					if err != nil {
						t.Fatalf("window %d, %s, step %d: %v", window, st.name, step, err)
					}
					streams[i].s = s
				}
			}
		}
	}
}
