package routing

import (
	"net/netip"

	"github.com/xatu-go/xatu/internal/compact"
)

// The per-source lookup of the A3 spoof check is its own file so that
// `make bce` can hold it free of bounds checks.

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
	if i := int(t.slot(w)) - 1; i >= 0 && i < len(t.routes) {
		return t.routes[i], true
	}
	return Route{}, false
}

// OriginWord is LookupWord's origin alone, which is what the spoof check
// reads for every distinct source of a step.
func (t *Table) OriginWord(w uint32) (ASN, bool) {
	if i := int(t.slot(w)) - 1; i >= 0 && i < len(t.routes) {
		return t.routes[i].Origin, true
	}
	return 0, false
}

// slot returns w's leaf slot: 1 + the position in routes of w's longest
// matching prefix, or 0. The length tests prove every index in range;
// Insert makes them hold.
func (t *Table) slot(w uint32) uint32 {
	if t.l1 == nil {
		return 0
	}
	v := t.l1[w>>16]
	if i := int(v &^ split); v&split != 0 && i < len(t.l2) {
		v = t.l2[i][byte(w>>8)]
		if i := int(v &^ split); v&split != 0 && i < len(t.l3) {
			v = t.l3[i][byte(w)]
		}
	}
	return v
}
