// Package routing provides the small BGP-table substrate Xatu's spoofed
// source classification needs (§5.1, A3): a binary prefix trie over IPv4
// space with longest-prefix match, and a synthetic AS-level routing table
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

// Table is a longest-prefix-match routing table over IPv4 prefixes,
// implemented as a binary trie. The zero value is an empty table.
type Table struct {
	root *node
	n    int
}

type node struct {
	child [2]*node
	route *Route // non-nil when a prefix terminates here
}

// Insert adds a route. Inserting the same prefix twice replaces the origin.
// Only IPv4 (or 4-in-6) prefixes are accepted.
func (t *Table) Insert(p netip.Prefix, origin ASN) error {
	p4, ok := compact.IPv4Prefix(p)
	if !ok {
		return fmt.Errorf("routing: only IPv4 prefixes supported, got %v", p)
	}
	p = p4
	w, _ := compact.IPv4(p.Addr())
	if t.root == nil {
		t.root = &node{}
	}
	cur := t.root
	for i := 0; i < p.Bits(); i++ {
		b := bit(w, i)
		if cur.child[b] == nil {
			cur.child[b] = &node{}
		}
		cur = cur.child[b]
	}
	if cur.route == nil {
		t.n++
	}
	r := Route{Prefix: p, Origin: origin}
	cur.route = &r
	return nil
}

// Len reports the number of distinct prefixes in the table.
func (t *Table) Len() int { return t.n }

// Lookup returns the longest-prefix-match route for addr, or ok=false if no
// prefix covers it (the address is "unrouted"); an address that is not IPv4
// is unrouted.
func (t *Table) Lookup(addr netip.Addr) (Route, bool) {
	w, ok := compact.IPv4(addr)
	if !ok {
		return Route{}, false
	}
	return t.LookupWord(w)
}

// LookupWord is Lookup for an IPv4 address given as its big-endian word.
func (t *Table) LookupWord(w uint32) (Route, bool) {
	var best *Route
	for cur, i := t.root, 0; cur != nil; i++ {
		if cur.route != nil {
			best = cur.route
		}
		if i == 32 {
			break
		}
		cur = cur.child[bit(w, i)]
	}
	if best == nil {
		return Route{}, false
	}
	return *best, true
}

// bit returns bit i (0 = most significant) of an address word.
func bit(w uint32, i int) uint32 {
	return w >> (31 - uint(i)) & 1
}

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
