package netflow

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"time"
)

// tiedBucket draws n records with heavy ties: few distinct Starts, Ends and
// sources, so runs of equal Start, of equal Start+End+Src, and exact
// duplicates all occur; a few Starts lie outside the int64-nanosecond range
// (the zero Time included), where a UnixNano key would wrap.
func tiedBucket(rng *rand.Rand, n int) []Record {
	base := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	starts := []time.Time{{}, time.Date(1500, 1, 1, 0, 0, 0, 7, time.UTC), time.Date(2400, 1, 1, 0, 0, 0, 0, time.UTC)}
	for k := 0; k < 12; k++ {
		starts = append(starts, base.Add(time.Duration(rng.Intn(4))*time.Second+time.Duration(rng.Intn(3))))
	}
	recs := make([]Record, n)
	for i := range recs {
		r := &recs[i]
		r.Start = starts[rng.Intn(len(starts))]
		r.End = r.Start.Add(time.Duration(rng.Intn(2)) * time.Millisecond)
		r.Src = netip.AddrFrom4([4]byte{11, 0, 0, byte(rng.Intn(3))})
		r.Dst = netip.AddrFrom4([4]byte{23, 0, 0, byte(rng.Intn(2))})
		r.SrcPort, r.DstPort = uint16(rng.Intn(2)), uint16(rng.Intn(2))
		r.Proto, r.TCPFlags = Proto(rng.Intn(2)), uint8(rng.Intn(2))
		r.Packets, r.Bytes = uint32(rng.Intn(2)), uint32(rng.Intn(2))
		r.SrcAS, r.DstAS = uint16(rng.Intn(2)), uint16(rng.Intn(2))
		if i > 0 && rng.Intn(4) == 0 {
			*r = recs[rng.Intn(i)] // exact duplicate
		}
	}
	return recs
}

// TestSortRecordsCanonicalMatchesSortFunc pins the keyed sort to the
// definition: the same sequence as sorting the records themselves by
// CompareRecords.
func TestSortRecordsCanonicalMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 2, 3, 17, 2000, 2000} {
		recs := tiedBucket(rng, n)
		want := slices.Clone(recs)
		slices.SortFunc(want, CompareRecords)
		SortRecordsCanonical(recs)
		if !slices.Equal(recs, want) {
			t.Fatalf("n=%d: keyed sort differs from slices.SortFunc(recs, CompareRecords)", n)
		}
	}
}

func TestSortRecordsCanonicalAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	rng := rand.New(rand.NewSource(2))
	src := tiedBucket(rng, 2000)
	recs := slices.Clone(src)
	SortRecordsCanonical(recs) // warm the key pool
	allocs := testing.AllocsPerRun(20, func() {
		copy(recs, src)
		SortRecordsCanonical(recs)
	})
	if allocs != 0 {
		t.Fatalf("SortRecordsCanonical allocs/op = %v, want 0", allocs)
	}
}

// BenchmarkSortRecordsCanonical sorts one shuffled bucket of flood-step
// size with millisecond-resolution Starts over a minute, as the ingest
// pipeline sees them.
func BenchmarkSortRecordsCanonical(b *testing.B) {
	for _, n := range []int{2000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			base := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
			src := make([]Record, n)
			for i := range src {
				src[i] = Record{
					Src:     netip.AddrFrom4([4]byte{11, byte(rng.Intn(256)), byte(rng.Intn(256)), 1}),
					Dst:     netip.AddrFrom4([4]byte{23, 1, 0, 1}),
					Start:   base.Add(time.Duration(rng.Intn(58000)) * time.Millisecond),
					Packets: 1, Bytes: 64,
				}
				src[i].End = src[i].Start.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
			}
			recs := make([]Record, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(recs, src)
				SortRecordsCanonical(recs)
			}
		})
	}
}
