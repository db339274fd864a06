package nn

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// meanPool pools the one-feature sequence vals by k through MeanPoolInto
// into row 1 of two-row batches, leaving row 0 at a sentinel that pooling
// must not touch.
func meanPool(t *testing.T, k int, vals ...float64) []float64 {
	t.Helper()
	xs := make([][]float64, len(vals))
	dst := make([]Batch, len(vals))
	for i, v := range vals {
		xs[i] = []float64{v}
		dst[i].Resize(2, 1)
		dst[i].Data[0] = -1
	}
	n := MeanPoolInto(dst, 1, xs, k)
	out := make([]float64, n)
	for p := range out {
		out[p] = dst[p].Data[1]
	}
	for p := range dst {
		if dst[p].Data[0] != -1 {
			t.Fatalf("pooling wrote outside its row at step %d", p)
		}
	}
	return out
}

func TestMeanPoolBasic(t *testing.T) {
	if got := meanPool(t, 2, 2, 4, 6, 8, 10); !slices.Equal(got, []float64{3, 7, 10}) {
		t.Fatalf("got %v, want [3 7 10]", got)
	}
}

func TestMeanPoolK1Identity(t *testing.T) {
	for _, k := range []int{1, 0} {
		if got := meanPool(t, k, 1, 3); !slices.Equal(got, []float64{1, 3}) {
			t.Fatalf("k=%d: got %v, want a copy of the input", k, got)
		}
	}
}

func TestMeanPoolEmpty(t *testing.T) {
	if n := MeanPoolInto(nil, 0, nil, 3); n != 0 {
		t.Fatalf("empty input pooled to %d steps, want 0", n)
	}
}

// TestMeanPoolConservesMean: the weighted mean of pooled outputs equals the
// mean of inputs (invariant from DESIGN.md §5).
func TestMeanPoolConservesMean(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%50 + 1
		k := int(kRaw)%10 + 1
		rng := rand.New(rand.NewSource(seed))
		vals := make([]float64, n)
		var total float64
		for i := range vals {
			vals[i] = rng.NormFloat64()
			total += vals[i]
		}
		var pooledTotal float64
		for w, v := range meanPool(t, k, vals...) {
			pooledTotal += v * float64(min(w*k+k, n)-w*k)
		}
		return almostEq(total, pooledTotal, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanPoolBackwardMatchesNumeric(t *testing.T) {
	// L = Σ_w pooled[w][0] over 5 steps pooled by 2 (three windows);
	// dL/dx[t][0] must be 1/windowLen for t's window.
	k := 2
	dPooled := []Vec{{1}, {1}, {1}}
	dXs := MeanPoolBackward(dPooled, k, 5, 1)
	want := []float64{0.5, 0.5, 0.5, 0.5, 1} // last window has length 1
	for t2, w := range want {
		if !almostEq(dXs[t2][0], w, 1e-12) {
			t.Fatalf("dXs[%d] = %v, want %v", t2, dXs[t2][0], w)
		}
	}
}

func TestMeanPoolBackwardNilEntries(t *testing.T) {
	dXs := MeanPoolBackward([]Vec{nil, {2}}, 2, 4, 1)
	if dXs[0][0] != 0 || dXs[1][0] != 0 {
		t.Fatal("nil pooled gradient must contribute zero")
	}
	if dXs[2][0] != 1 || dXs[3][0] != 1 {
		t.Fatalf("got %v", dXs)
	}
}

func TestMeanPoolBackwardK1(t *testing.T) {
	dXs := MeanPoolBackward([]Vec{{3}, nil, {5}}, 1, 3, 1)
	if dXs[0][0] != 3 || dXs[1][0] != 0 || dXs[2][0] != 5 {
		t.Fatalf("got %v", dXs)
	}
}
