package netflow

import (
	"encoding/binary"
	"net/netip"
	"time"
)

// Aggregator rolls a stream of flow records (whose timestamps may arrive
// slightly out of order, as NetFlow exports do) into fixed-duration step
// batches grouped by destination — the per-customer per-minute view the
// feature extractor consumes. A watermark seals a bucket once records
// Lateness past its end have been seen; later stragglers are counted and
// dropped rather than reopening history. Records keep their arrival order
// within a destination.
//
// Sealed storage is recycled: Recycle returns a consumed batch's map and
// record slices to internal free-lists, so a warmed-up aggregator adds
// records and seals steps without allocating. An Aggregator is not safe
// for concurrent use.
type Aggregator struct {
	Step     time.Duration
	Lateness time.Duration

	buckets   map[int64]*bucket
	watermark time.Time
	dropped   uint64
	// oldestDL is the seal deadline (Start + Step + Lateness) of the
	// earliest open bucket, zero when none are open: the per-record
	// advance fast path compares the watermark against it and skips the
	// bucket scan entirely while nothing can seal. Precomputed so the
	// per-record check is one comparison, not a time.Add.
	oldestDL time.Time
	// cur/curEnd memoize the bucket the previous record landed in:
	// consecutive records usually share a bucket, and hitting the memo
	// skips the Truncate and the bucket lookup. Invalidated whenever any
	// bucket seals (the memoized one may be among them).
	cur    *bucket
	curEnd time.Time

	// sealed is the reused result buffer for Add and Flush; its contents
	// are valid until the next Add or Flush call.
	sealed []StepBatch
	// Free-lists for open buckets and sealed-batch storage, refilled by
	// seal and Recycle; freeRecs holds at most maxFreeRecs slices.
	freeBuckets []*bucket
	freeMaps    []map[netip.Addr][]Record
	freeRecs    [][]Record
	poolHits    uint64
	poolMisses  uint64
}

// bucket is one open step. A record finds its destination's slot with one
// lookup in an index keyed by the destination's IPv4 word, hashed as four
// bytes instead of a 24-byte netip.Addr (any other address goes through a
// second, lazily made index). The per-destination record slices go into a
// StepBatch's map once, when the step seals. A recycled bucket keeps its
// cleared, warmed indexes.
type bucket struct {
	start time.Time
	idx4  map[uint32]int32
	idx   map[netip.Addr]int32
	recs  [][]Record
}

// StepBatch is one sealed aggregation step.
type StepBatch struct {
	Start time.Time
	ByDst map[netip.Addr][]Record
}

// NewAggregator returns an aggregator with the given step and lateness
// allowance (how far out of order records may arrive).
func NewAggregator(step, lateness time.Duration) *Aggregator {
	if step <= 0 {
		step = time.Minute
	}
	if lateness < 0 {
		lateness = 0
	}
	return &Aggregator{Step: step, Lateness: lateness, buckets: make(map[int64]*bucket)}
}

// Add consumes one record and returns any batches its arrival sealed,
// oldest first. The returned slice and the batches it holds are owned by
// the aggregator and remain valid only until the next Add or Flush call;
// consume them (and Recycle their storage) before adding more records.
func (a *Aggregator) Add(r Record) []StepBatch {
	return a.add(&r)
}

// AddBatch adds recs in order, invoking emit for every non-empty sealed
// set as it appears. Unlike a loop over Add, records are consumed through
// pointers — no per-call copy of the (large) Record struct — which is
// measurable at ingest-pipeline rates. The emitted batches follow Add's
// ownership rules: consume (and Recycle) inside emit.
func (a *Aggregator) AddBatch(recs []Record, emit func([]StepBatch)) {
	for i := range recs {
		if sealed := a.add(&recs[i]); len(sealed) > 0 {
			emit(sealed)
		}
	}
}

func (a *Aggregator) add(r *Record) []StepBatch {
	b := a.cur
	if b == nil || r.Start.Before(b.start) || !r.Start.Before(a.curEnd) {
		var sealed []StepBatch
		b, sealed = a.lookupBucket(r)
		if b == nil {
			return sealed
		}
	}
	i := a.slot(b, r.Dst)
	b.recs[i] = append(b.recs[i], *r)
	return a.advance(r.Start)
}

// slot returns the index of dst's record slice in b, adding the
// destination on its first record: one index lookup per record.
func (a *Aggregator) slot(b *bucket, dst netip.Addr) int32 {
	i := int32(len(b.recs))
	if dst.Is4() {
		a4 := dst.As4()
		w := binary.BigEndian.Uint32(a4[:])
		if j, ok := b.idx4[w]; ok {
			return j
		}
		b.idx4[w] = i
	} else if j, ok := b.idx[dst]; ok {
		return j
	} else {
		if b.idx == nil {
			b.idx = make(map[netip.Addr]int32)
		}
		b.idx[dst] = i
	}
	b.recs = append(b.recs, a.newRecSlice())
	return i
}

// lookupBucket resolves (creating if needed) the bucket for r on a memo
// miss, or drops r as late (nil bucket, returning the sealed batches its
// watermark advance produced).
func (a *Aggregator) lookupBucket(r *Record) (*bucket, []StepBatch) {
	bucketStart := r.Start.Truncate(a.Step)
	if !a.watermark.IsZero() && bucketStart.Add(a.Step+a.Lateness).Before(a.watermark) {
		a.dropped++
		return nil, a.advance(r.Start)
	}
	key := bucketStart.UnixNano()
	b := a.buckets[key]
	if b == nil {
		b = a.newBucket(bucketStart)
		a.buckets[key] = b
		dl := bucketStart.Add(a.Step + a.Lateness)
		if a.oldestDL.IsZero() || dl.Before(a.oldestDL) {
			a.oldestDL = dl
		}
	}
	a.cur, a.curEnd = b, bucketStart.Add(a.Step)
	return b, nil
}

// newBucket takes an open bucket from the free-list, or allocates one.
func (a *Aggregator) newBucket(start time.Time) *bucket {
	var b *bucket
	if n := len(a.freeBuckets); n > 0 {
		b = a.freeBuckets[n-1]
		a.freeBuckets = a.freeBuckets[:n-1]
	} else {
		b = &bucket{idx4: make(map[uint32]int32)}
	}
	b.start = start
	return b
}

// newMap takes an empty ByDst map from the free-list, or allocates.
func (a *Aggregator) newMap(size int) map[netip.Addr][]Record {
	if n := len(a.freeMaps); n > 0 {
		m := a.freeMaps[n-1]
		a.freeMaps = a.freeMaps[:n-1]
		a.poolHits++
		return m
	}
	a.poolMisses++
	return make(map[netip.Addr][]Record, size)
}

// newRecSlice takes an empty record slice with warmed capacity from the
// free-list, or returns nil (append will allocate).
func (a *Aggregator) newRecSlice() []Record {
	if n := len(a.freeRecs); n > 0 {
		s := a.freeRecs[n-1]
		a.freeRecs = a.freeRecs[:n-1]
		a.poolHits++
		return s
	}
	a.poolMisses++
	return nil
}

// advance moves the watermark and seals ripe buckets into the reused
// sealed buffer, oldest first.
func (a *Aggregator) advance(eventTime time.Time) []StepBatch {
	if eventTime.After(a.watermark) {
		a.watermark = eventTime
	}
	a.sealed = a.sealed[:0]
	// Fast path: nothing can seal until the watermark passes the oldest
	// open bucket's deadline, so the per-record common case is one time
	// comparison, not a map scan.
	if a.oldestDL.IsZero() || !a.oldestDL.Before(a.watermark) {
		return a.sealed
	}
	a.oldestDL = time.Time{}
	a.cur = nil // the memoized bucket may be among the sealed
	for key, b := range a.buckets {
		dl := b.start.Add(a.Step + a.Lateness)
		if dl.Before(a.watermark) {
			a.seal(b)
			delete(a.buckets, key)
		} else if a.oldestDL.IsZero() || dl.Before(a.oldestDL) {
			a.oldestDL = dl
		}
	}
	sortBatchesByStart(a.sealed)
	return a.sealed
}

// seal builds a bucket's batch into the sealed buffer, one map entry per
// destination, and returns the emptied bucket to the free-list.
func (a *Aggregator) seal(b *bucket) {
	byDst := a.newMap(len(b.recs))
	for w, i := range b.idx4 {
		var a4 [4]byte
		binary.BigEndian.PutUint32(a4[:], w)
		byDst[netip.AddrFrom4(a4)] = b.recs[i]
	}
	for d, i := range b.idx {
		byDst[d] = b.recs[i]
	}
	a.sealed = append(a.sealed, StepBatch{Start: b.start, ByDst: byDst})
	clear(b.idx4)
	clear(b.idx)
	clear(b.recs) // the batch owns the record slices now
	b.recs = b.recs[:0]
	a.freeBuckets = append(a.freeBuckets, b)
}

// Flush seals and returns every pending bucket, oldest first. Like Add,
// the returned slice is valid only until the next Add or Flush call.
func (a *Aggregator) Flush() []StepBatch {
	a.sealed = a.sealed[:0]
	a.oldestDL = time.Time{}
	a.cur = nil
	for key, b := range a.buckets {
		a.seal(b)
		delete(a.buckets, key)
	}
	sortBatchesByStart(a.sealed)
	return a.sealed
}

// sortBatchesByStart orders sealed batches oldest first. Map iteration
// hands them over in random order, so without this sort flushed steps
// would replay out of sequence. Insertion sort: the sealed set per call is
// tiny (usually 0 or 1) and this keeps the hot path allocation-free where
// sort.Slice would allocate its closure.
func sortBatchesByStart(bs []StepBatch) {
	for i := 1; i < len(bs); i++ {
		for j := i; j > 0 && bs[j].Start.Before(bs[j-1].Start); j-- {
			bs[j], bs[j-1] = bs[j-1], bs[j]
		}
	}
}

// maxFreeRecs bounds the record slices waiting on an aggregator's
// free-list. A sealed step's slices refill the next step's buckets; past
// the bound they go to the collector, so a wide step of small buckets
// costs their allocation again rather than holding them all between steps.
const maxFreeRecs = 256

// Recycle returns a consumed batch's storage — the ByDst map and every
// per-destination record slice — to the aggregator's free-lists. Call it
// once per sealed batch after the batch's records are fully consumed; the
// caller must not retain the map or any record slice afterwards.
func (a *Aggregator) Recycle(b StepBatch) {
	if b.ByDst == nil {
		return
	}
	for _, recs := range b.ByDst {
		if len(a.freeRecs) == maxFreeRecs {
			break
		}
		a.freeRecs = append(a.freeRecs, recs[:0])
	}
	clear(b.ByDst)
	a.freeMaps = append(a.freeMaps, b.ByDst)
}

// RecycleShell is Recycle for consumers that keep the records: the ByDst
// map returns to the free-list but the per-destination record slices stay
// with the caller. Only the benchmark module still calls it.
func (a *Aggregator) RecycleShell(b StepBatch) {
	if b.ByDst == nil {
		return
	}
	clear(b.ByDst)
	a.freeMaps = append(a.freeMaps, b.ByDst)
}

// Dropped reports records discarded for arriving later than the allowance.
func (a *Aggregator) Dropped() uint64 { return a.dropped }

// PoolStats reports free-list hits and misses for sealed-batch storage
// (maps and record slices). A warmed-up steady state shows hits only.
func (a *Aggregator) PoolStats() (hits, misses uint64) { return a.poolHits, a.poolMisses }
