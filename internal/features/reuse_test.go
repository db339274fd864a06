package features

import (
	"bytes"
	"math"
	"net/netip"
	"slices"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/attackhist"
)

// TestA5ReuseExact pins the A5 reuse rule to its definition: at every
// instant a nanosecond either side of, and at, every recorded span's
// first and last+window, walked forwards and then backwards, the A5 block
// ExtractInto returns through one Scratch equals a fresh Clusterings call
// bit for bit, for four customers with overlapping attackers and one with
// none. RecordAttacker and Load calls interleaved with the walk change
// the spans under answers the Scratch holds. The walk must both reuse and
// recompute answers, or it shows nothing.
func TestA5ReuseExact(t *testing.T) {
	const window = 6 * time.Hour
	h := attackhist.NewRegistry()
	e := &Extractor{History: h, A5Window: window}
	cs := make([]netip.Addr, 5) // cs[4] never has an attacker
	for i := range cs {
		cs[i] = netip.AddrFrom4([4]byte{23, 1, 1, byte(i + 1)})
	}
	src := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{11, 0, 0, byte(i)}) }
	var spans [][2]time.Time
	record := func(reg *attackhist.Registry, c netip.Addr, s netip.Addr, first, last time.Time) {
		reg.RecordAttacker(c, s, first)
		reg.RecordAttacker(c, s, last)
		spans = append(spans, [2]time.Time{first, last})
	}
	for i := 0; i < 24; i++ {
		first := t0.Add(time.Duration(i*37) * time.Minute)
		record(h, cs[i%4], src(i%7), first, first.Add(time.Duration(i%5)*time.Hour))
	}
	// Written mid-walk: a span for cs[1] through RecordAttacker, and one
	// for cs[2] through Load, both over attackers the others share.
	late := t0.Add(5 * time.Hour)
	writes := []func(){
		func() { record(h, cs[1], src(3), late, late.Add(2*time.Hour)) },
		func() {
			snap := attackhist.NewRegistry()
			record(snap, cs[2], src(5), late.Add(time.Hour), late.Add(4*time.Hour))
			var buf bytes.Buffer
			if err := snap.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if err := h.Load(&buf); err != nil {
				t.Fatal(err)
			}
		},
	}
	instants := func() []time.Time {
		var ts []time.Time
		for _, sp := range spans {
			for _, edge := range []time.Time{sp[0], sp[1].Add(window)} {
				ts = append(ts, edge.Add(-time.Nanosecond), edge, edge.Add(time.Nanosecond))
			}
		}
		slices.SortFunc(ts, time.Time.Compare)
		return slices.CompactFunc(ts, time.Time.Equal)
	}
	var s Scratch
	var dst []float64
	reused, fresh := 0, 0
	check := func(at time.Time) {
		for _, c := range cs {
			if m, ok := s.a5[c]; ok && h.Holds(m.reuse, at, window) {
				reused++
			} else {
				fresh++
			}
			dst = e.ExtractInto(dst, &s, c, at, nil)
			dot, minc, maxc := h.Clusterings(c, at, window)
			for k, want := range []float64{dot, minc, maxc} {
				if got := dst[OffA5+k]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%v at %v: A5[%d] = %v, Clusterings = %v", c, at.Format(time.RFC3339Nano), k, got, want)
				}
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		ts := instants()
		if pass == 1 {
			slices.Reverse(ts)
		}
		for i, at := range ts {
			check(at)
			if w := len(ts) / 3; i%w == w/2 && len(writes) > 0 {
				writes[0]()
				writes = writes[1:]
				check(at)
			}
		}
	}
	if len(writes) != 0 {
		t.Fatalf("%d writes never ran", len(writes))
	}
	if _, ok := s.a5[cs[4]]; ok {
		t.Error("a customer with no attackers holds an A5 entry")
	}
	if reused == 0 || fresh == 0 {
		t.Fatalf("reused %d answers and recomputed %d: the walk must do both", reused, fresh)
	}
	t.Logf("reused %d answers, recomputed %d", reused, fresh)
}
