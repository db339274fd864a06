// Package netflow implements the traffic-feed substrate Xatu consumes: a
// flow-record model, a NetFlow v5 wire codec, a fault-tolerant UDP exporter
// with per-exporter sequence accounting for the receiving side (the ingest
// pipeline serves the socket), a seeded chaos transport, and 1:N packet
// sampling mirroring the ISP's sampled NetFlow (§2.2, sampling rates 1:1 to
// 1:10000).
package netflow

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sync"
	"time"
)

// Proto is an IP protocol number. Only the three protocols the paper's
// volumetric features disaggregate are named; others pass through.
type Proto uint8

// Protocol numbers used throughout the repo.
const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String returns the protocol name.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "icmp"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	default:
		return fmt.Sprintf("proto-%d", uint8(p))
	}
}

// TCP flag bits as they appear in the NetFlow tcp_flags field.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// Record is one unidirectional flow record, the unit every other package
// consumes. Timestamps use wall-clock time; the v5 codec converts to/from
// router uptime internally.
type Record struct {
	Src      netip.Addr
	Dst      netip.Addr
	SrcPort  uint16
	DstPort  uint16
	Proto    Proto
	TCPFlags uint8
	Packets  uint32
	Bytes    uint32
	Start    time.Time
	End      time.Time
	SrcAS    uint16 // ingress AS, feeds the spoof origin check
	DstAS    uint16
}

// Validate performs sanity checks used by decoders and generators.
func (r *Record) Validate() error {
	if !r.Src.IsValid() || !r.Dst.IsValid() {
		return fmt.Errorf("netflow: invalid address in record")
	}
	if !r.Src.Unmap().Is4() || !r.Dst.Unmap().Is4() {
		return fmt.Errorf("netflow: only IPv4 flows supported")
	}
	if r.Packets == 0 {
		return fmt.Errorf("netflow: record with zero packets")
	}
	if r.End.Before(r.Start) {
		return fmt.Errorf("netflow: flow ends before it starts")
	}
	return nil
}

// CompareRecords is a total order over all record fields (timestamps
// first, then the flow 5-tuple, then counters): a canonical order for a
// step's records that does not depend on how they interleaved across
// workers. Serving does not need it, since feature extraction is exact
// whatever the order.
func CompareRecords(a, b Record) int { return compareRecords(&a, &b) }

// compareRecords is CompareRecords without copying two 120-byte records
// per comparison.
func compareRecords(a, b *Record) int {
	if c := a.Start.Compare(b.Start); c != 0 {
		return c
	}
	return cmp.Or(
		a.End.Compare(b.End),
		a.Src.Compare(b.Src),
		a.Dst.Compare(b.Dst),
		cmp.Compare(a.SrcPort, b.SrcPort),
		cmp.Compare(a.DstPort, b.DstPort),
		cmp.Compare(a.Proto, b.Proto),
		cmp.Compare(a.TCPFlags, b.TCPFlags),
		cmp.Compare(a.Packets, b.Packets),
		cmp.Compare(a.Bytes, b.Bytes),
		cmp.Compare(a.SrcAS, b.SrcAS),
		cmp.Compare(a.DstAS, b.DstAS),
	)
}

// sortKey stands in for one record while its bucket is sorted: Start as
// its distance from the bucket's first record, which decides almost every
// comparison, and the record's position. Sub saturates beyond ±292 years,
// so the distance never misorders two Starts; it can only tie them.
type sortKey struct {
	start time.Duration
	idx   int
}

// sortKeys recycles key slices between SortRecordsCanonical calls.
var sortKeys = sync.Pool{New: func() any { return new([]sortKey) }}

// SortRecordsCanonical sorts recs by CompareRecords in place. It sorts
// 16-byte keys instead of 120-byte records, falls back to the full
// comparison, through pointers, only where two keys tie, and then moves
// every record once, into its place; in steady state it does not allocate.
// Only the benchmark module and tests still call it.
func SortRecordsCanonical(recs []Record) {
	if len(recs) < 2 {
		return
	}
	kp := sortKeys.Get().(*[]sortKey)
	keys := slices.Grow((*kp)[:0], len(recs))[:len(recs)]
	for i := range recs {
		keys[i] = sortKey{start: recs[i].Start.Sub(recs[0].Start), idx: i}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		return compareRecords(&recs[a.idx], &recs[b.idx])
	})
	// keys[i].idx is now the position of the record that belongs at i.
	// Follow each cycle of that permutation, marking settled places by
	// pointing them at themselves.
	for i := range keys {
		if keys[i].idx == i {
			continue
		}
		first := recs[i]
		j := i
		for {
			from := keys[j].idx
			keys[j].idx = j
			if from == i {
				recs[j] = first
				break
			}
			recs[j] = recs[from]
			j = from
		}
	}
	*kp = keys
	sortKeys.Put(kp)
}
