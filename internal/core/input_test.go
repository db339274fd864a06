package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// sharingConfig has the model's own pooling factors, 10 and 60, so the
// schedule below checkpoints with both pools part full.
func sharingConfig() Config {
	cfg := DefaultConfig(7)
	cfg.Hidden, cfg.Window = 6, 9
	return cfg
}

// TestLaneRecordSharingInvariant is the property input records rest on:
// six channels of one customer sharing one record compute exactly what six
// streams with private records do. Both runs take one seeded schedule —
// a fresh group, a Reset of one sibling with both pools part full, a
// missing step on one sibling only, a Push listing 3 of the 6 sharers,
// sharers fed different slices in one Push, and a checkpoint/restore of
// the whole group at 0 < bufN < 10 and < 60 (twice: while the group shares
// one record and after it has split) — once as a Monitor steps a customer
// (one lane, one Push, one aliased slice) and once with each stream alone
// on a lane of its own. Every survival value must be bit-equal and every
// final checkpoint byte-equal. The shared run must hold one record with
// six references in steady state and after the restore.
func TestLaneRecordSharingInvariant(t *testing.T) {
	m, err := New(sharingConfig())
	if err != nil {
		t.Fatal(err)
	}
	const C, steps = 6, 150
	nf := m.Cfg.NumFeatures
	run := func(shared bool) (outs []float64, ckpts [][]byte) {
		lanes := make([]*BatchRunner32, C)
		streams := make([]*Stream, C)
		for i := range streams {
			if i == 0 || !shared {
				lanes[i] = newLane(t, m)
			} else {
				lanes[i] = lanes[0]
			}
			streams[i] = lanes[i].NewStream()
		}
		// push steps the listed siblings, each on its input: through one
		// Push in the shared run, one by one on their own lanes otherwise.
		push := func(who []int, xs [][]float64) {
			if !shared {
				for n, i := range who {
					outs = append(outs, streams[i].Push(append([]float64(nil), xs[n]...)))
				}
				return
			}
			ss := make([]*Stream, len(who))
			for n, i := range who {
				ss[n] = streams[i]
			}
			outs = append(outs, lanes[0].Push(ss, xs, nil)...)
		}
		all := []int{0, 1, 2, 3, 4, 5}
		restoreAll := func() {
			for i, s := range streams {
				if streams[i], err = lanes[i].RestoreStream(bytes.NewReader(checkpointBytes(t, s))); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkRefs := func(step int) {
			if !shared {
				return
			}
			rec := streams[0].rec
			for i, s := range streams {
				if s.rec != rec {
					t.Fatalf("step %d: sibling %d holds another record than sibling 0", step, i)
				}
			}
			if rec == nil || rec.refs != C {
				t.Fatalf("step %d: shared record %+v, want one with %d references", step, rec, C)
			}
		}
		rng := rand.New(rand.NewSource(31))
		for step := 0; step < steps; step++ {
			x := randInput(rng, nf)
			for j := range x {
				if rng.Intn(3) > 0 {
					x[j] = 0
				}
			}
			same := func(who []int) [][]float64 {
				xs := make([][]float64, len(who))
				for n := range xs {
					xs[n] = x
				}
				return xs
			}
			switch step {
			case 23: // bufN 3 and 23: one sibling starts over
				streams[2].Reset()
				push(all, same(all))
			case 31: // a missing step on one sibling only
				outs = append(outs, streams[4].PushMissing(MissingCarry))
				push([]int{0, 1, 2, 3, 5}, same([]int{0, 1, 2, 3, 5}))
			case 37: // a Push listing 3 of the 6 sharers, then the rest
				push([]int{0, 1, 3}, same([]int{0, 1, 3}))
				push([]int{4, 5}, same([]int{4, 5}))
				outs = append(outs, streams[2].PushMissing(MissingZero))
			case 44: // sharers fed different slices in one Push
				y := randInput(rng, nf)
				push(all, [][]float64{x, x, y, y, x, x})
			default:
				push(all, same(all))
			}
			switch step {
			case 14: // steady state: one record, six references
				checkRefs(step)
			case 15: // bufN 6 and 16
				restoreAll()
				checkRefs(step)
				push(all, same(all))
				checkRefs(step)
			case 127: // bufN 8 and 8, after the splits
				restoreAll()
			}
		}
		for _, s := range streams {
			ckpts = append(ckpts, checkpointBytes(t, s))
		}
		return outs, ckpts
	}
	wantOuts, wantCkpts := run(false)
	outs, ckpts := run(true)
	if len(outs) != len(wantOuts) {
		t.Fatalf("%d survival values shared, %d private", len(outs), len(wantOuts))
	}
	for k := range wantOuts {
		if math.Float64bits(outs[k]) != math.Float64bits(wantOuts[k]) {
			t.Fatalf("value %d: survival %v shared, %v private", k, outs[k], wantOuts[k])
		}
	}
	for i := range wantCkpts {
		if !bytes.Equal(ckpts[i], wantCkpts[i]) {
			t.Fatalf("sibling %d: checkpoint differs from the sibling with a private record", i)
		}
	}
}
