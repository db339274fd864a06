package nn

import (
	"math/rand"
	"testing"
)

func TestStepMatchesForward(t *testing.T) {
	// The sparse input projection against the Step oracle: the CSR forward
	// must reproduce Step's dense MulVec bit for bit, gates included.
	l := NewLSTM(24, 5, rand.New(rand.NewSource(31)))
	var tp BatchTape
	fillTapeSparseInputs(&tp, l, 1, 8, 3, rand.New(rand.NewSource(37)))
	tp.BuildSparse()
	if !tp.Sparse() {
		t.Fatal("3/24 non-zeros per row should enable the sparse path")
	}
	l.ForwardBatch(&tp)
	stepMatchesTape(t, l, &tp)
}

func TestStepNilStateIsZeroState(t *testing.T) {
	l := NewLSTM(2, 3, rand.New(rand.NewSource(1)))
	h1, c1 := l.Step(nil, nil, Vec{1, 2}, nil)
	h2, c2 := l.Step(NewVec(3), NewVec(3), Vec{1, 2}, nil)
	for j := range h1 {
		if h1[j] != h2[j] || c1[j] != c2[j] {
			t.Fatal("nil state must equal zero state")
		}
	}
}

func TestShareWeightsAliasesWeightsNotGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLSTM(2, 3, rng)
	r := l.ShareWeights()
	if &r.Wx.Data[0] != &l.Wx.Data[0] {
		t.Fatal("weights must alias")
	}
	if &r.GWx.Data[0] == &l.GWx.Data[0] {
		t.Fatal("gradients must be independent")
	}
	// A replica backward must not touch the primary's gradients.
	var tp BatchTape
	packSeqs(&tp, r, []Vec{{1, 1}})
	r.ForwardBatch(&tp)
	dH := []Batch{{Rows: 1, Cols: 3, Data: []float64{1, 1, 1}}}
	var s BatchGradScratch
	r.BackwardBatch(&tp, dH, []bool{true}, &s)
	for _, g := range l.GWx.Data {
		if g != 0 {
			t.Fatal("primary grads must stay zero")
		}
	}
	// Merge moves them over and zeroes the replica.
	r.MergeGradsInto(l)
	var sum float64
	for _, g := range l.GWx.Data {
		sum += g * g
	}
	if sum == 0 {
		t.Fatal("merge must transfer gradients")
	}
	for _, g := range r.GWx.Data {
		if g != 0 {
			t.Fatal("replica grads must be zeroed after merge")
		}
	}
}

func TestDenseShareWeightsAndMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense(2, 2, rng)
	r := d.ShareWeights()
	if &r.W.Data[0] != &d.W.Data[0] || &r.GW.Data[0] == &d.GW.Data[0] {
		t.Fatal("sharing semantics wrong")
	}
	x := Batch{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	dy := Batch{Rows: 1, Cols: 2, Data: []float64{3, 4}}
	var dx Batch
	r.BackwardBatch(&x, &dy, &dx)
	r.MergeGradsInto(d)
	if d.GW.At(0, 0) != 3 || d.GW.At(1, 1) != 8 {
		t.Fatalf("merged grads wrong: %v", d.GW.Data)
	}
	if r.GW.At(0, 0) != 0 {
		t.Fatal("replica must be zeroed")
	}
}

func TestReplicaForwardIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM(3, 4, rng)
	r := l.ShareWeights()
	xs := []Vec{{1, 0, -1}, {0.5, 0.5, 0.5}}
	var tl, tr BatchTape
	packSeqs(&tl, l, xs)
	packSeqs(&tr, r, xs)
	l.ForwardBatch(&tl)
	r.ForwardBatch(&tr)
	for i := range xs {
		for j, v := range tl.H[i].Data {
			if v != tr.H[i].Data[j] {
				t.Fatal("replica forward must match primary")
			}
		}
	}
}
