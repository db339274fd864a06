// Package routing provides the small BGP-table substrate Xatu's spoofed
// source classification needs (§5.1, A3): a stride-16/8/8 longest-prefix
// match table over IPv4 space, and a synthetic AS-level routing table
// generator standing in for RouteViews/RIPE RIS dumps.
package routing

import (
	"fmt"
	"math/rand"
	"net/netip"

	"github.com/xatu-go/xatu/internal/compact"
)

// ASN identifies an autonomous system.
type ASN uint32

// Route is one table entry: a prefix originated by an AS.
type Route struct {
	Prefix netip.Prefix
	Origin ASN
}

// Table is a longest-prefix-match routing table over IPv4 prefixes. The
// zero value is an empty table.
//
// It is a stride-16/8/8 table. l1 has one slot per /16. A /16 that a
// longer prefix splits points its slot at a 256-slot block of l2, one slot
// per /24, and a /24 split by a prefix longer than /24 points at a block
// of l3, one slot per address. Every other slot holds the longest prefix
// covering all of its addresses (1 + its index in routes; 0: none), so a
// lookup is at most three array loads. Insert keeps that true for any
// insert order: a prefix overwrites only the slots it covers whose route
// is shorter, and a new block starts as copies of the slot it splits.
type Table struct {
	routes []Route
	index  map[uint64]int32 // prefixKey → position in routes
	l1     *[1 << 16]uint32
	l2, l3 [][256]uint32
}

// split marks a slot that points at a block of the next level.
const split = 1 << 31

// prefixKey identifies a masked IPv4 prefix by its word and length.
func prefixKey(w uint32, bits int) uint64 { return uint64(w)<<6 | uint64(bits) }

// Insert adds a route. Inserting the same prefix twice replaces the origin.
// Only IPv4 (or 4-in-6) prefixes are accepted.
func (t *Table) Insert(p netip.Prefix, origin ASN) error {
	p4, ok := compact.IPv4Prefix(p)
	if !ok {
		return fmt.Errorf("routing: only IPv4 prefixes supported, got %v", p)
	}
	p = p4
	w, _ := compact.IPv4(p.Addr())
	bits := p.Bits()
	if i, ok := t.index[prefixKey(w, bits)]; ok {
		t.routes[i].Origin = origin
		return nil
	}
	if t.l1 == nil {
		t.l1 = new([1 << 16]uint32)
		t.index = make(map[uint64]int32)
	}
	t.index[prefixKey(w, bits)] = int32(len(t.routes))
	t.routes = append(t.routes, Route{Prefix: p, Origin: origin})
	v := uint32(len(t.routes))
	if bits <= 16 {
		lo := w >> 16
		t.fill(1, t.l1[lo:lo+1<<(16-bits)], v)
		return nil
	}
	slot := &t.l1[w>>16]
	if *slot&split == 0 {
		t.l2 = append(t.l2, block(*slot))
		*slot = split | uint32(len(t.l2)-1)
	}
	b2 := &t.l2[*slot&^split]
	if bits <= 24 {
		lo := w >> 8 & 0xff
		t.fill(2, b2[lo:lo+1<<(24-bits)], v)
		return nil
	}
	slot = &b2[w>>8&0xff]
	if *slot&split == 0 {
		t.l3 = append(t.l3, block(*slot))
		*slot = split | uint32(len(t.l3)-1)
	}
	lo := w & 0xff
	t.fill(3, t.l3[*slot&^split][lo:lo+1<<(32-bits)], v)
	return nil
}

// block returns a next-level block whose every slot is v.
func block(v uint32) (b [256]uint32) {
	for i := range b {
		b[i] = v
	}
	return b
}

// fill writes route v into every slot of slots, a range of level lv that
// v's prefix covers, unless the slot's route is longer; a split slot is
// filled through its whole block.
func (t *Table) fill(lv int, slots []uint32, v uint32) {
	bits := t.routes[v-1].Prefix.Bits()
	for i, s := range slots {
		switch {
		case s&split != 0 && lv == 1:
			t.fill(2, t.l2[s&^split][:], v)
		case s&split != 0:
			t.fill(3, t.l3[s&^split][:], v)
		case s == 0 || t.routes[s-1].Prefix.Bits() < bits:
			slots[i] = v
		}
	}
}

// Len reports the number of distinct prefixes in the table.
func (t *Table) Len() int { return len(t.routes) }

// SyntheticTable builds a deterministic toy Internet routing table: nASes
// autonomous systems each originating a handful of disjoint prefixes carved
// out of globally routable space. It intentionally leaves gaps so that some
// addresses are unrouted, which the spoof classifier relies on.
func SyntheticTable(nASes int, rng *rand.Rand) *Table {
	t := &Table{}
	// Carve /16s out of a few large routable blocks, assigning ~70% of them
	// so unrouted gaps remain.
	blocks := [][2]byte{{11, 0}, {23, 0}, {45, 0}, {66, 0}, {101, 0}, {133, 0}, {155, 0}, {181, 0}, {200, 0}}
	asn := ASN(64500)
	assigned := 0
	for _, blk := range blocks {
		for second := 0; second < 256; second += 4 {
			if rng.Float64() > 0.7 {
				continue // leave unrouted gap
			}
			origin := asn + ASN(rng.Intn(nASes))
			p := netip.PrefixFrom(netip.AddrFrom4([4]byte{blk[0], byte(second), 0, 0}), 14)
			if err := t.Insert(p, origin); err != nil {
				panic(err) // prefixes above are always valid IPv4
			}
			assigned++
		}
	}
	return t
}
