// Package spoof classifies traffic sources as (obviously) spoofed, the A3
// auxiliary signal of the paper (§5.1). Following the paper's three
// categories, an address is flagged when it is:
//
//  1. a bogon (RFC 1918 private, RFC 5737 documentation, RFC 6598 shared
//     address space, plus loopback/link-local/multicast/reserved), or
//  2. unrouted — not covered by any prefix in the BGP table, or
//  3. invalid — routed, but arriving from an ingress whose expected origin
//     AS does not announce the source prefix (a simplified full-cone check).
//
// Like the paper's measure, this deliberately catches only *obvious*
// spoofing; tests assert both directions of that imperfection.
package spoof

import (
	"net/netip"

	"github.com/xatu-go/xatu/internal/compact"
	"github.com/xatu-go/xatu/internal/routing"
)

// Class is the spoof classification of a source address.
type Class int

const (
	// Legit means the address passed every check.
	Legit Class = iota
	// Bogon means the address sits in reserved/private space.
	Bogon
	// Unrouted means no BGP prefix covers the address.
	Unrouted
	// InvalidOrigin means the source prefix is announced by a different AS
	// than the one the packet entered from.
	InvalidOrigin
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Legit:
		return "legit"
	case Bogon:
		return "bogon"
	case Unrouted:
		return "unrouted"
	case InvalidOrigin:
		return "invalid-origin"
	default:
		return "unknown"
	}
}

// Spoofed reports whether the class indicates a spoofed source.
func (c Class) Spoofed() bool { return c != Legit }

// IsBogon reports whether addr falls in reserved/private IPv4 space: the
// ranges of RFC 1918, RFC 5737, RFC 6598 and friends.
func IsBogon(addr netip.Addr) bool {
	w, ok := compact.IPv4(addr)
	return ok && isBogonWord(w)
}

// isBogonWord decides on the first octet, then on the second and third
// where a range is narrower than a /8.
func isBogonWord(w uint32) bool {
	second, third := byte(w>>16), byte(w>>8)
	switch first := byte(w >> 24); first {
	case 0, 10, 127: // 0.0.0.0/8 "this network", 10.0.0.0/8 RFC 1918, 127.0.0.0/8 loopback
		return true
	case 100: // 100.64.0.0/10 RFC 6598 shared address space
		return second&0xc0 == 64
	case 169: // 169.254.0.0/16 link local
		return second == 254
	case 172: // 172.16.0.0/12 RFC 1918
		return second&0xf0 == 16
	case 192: // 192.168.0.0/16 RFC 1918, 192.0.2.0/24 RFC 5737 TEST-NET-1
		return second == 168 || (second == 0 && third == 2)
	case 198: // 198.18.0.0/15 benchmarking, 198.51.100.0/24 RFC 5737 TEST-NET-2
		return second&0xfe == 18 || (second == 51 && third == 100)
	case 203: // 203.0.113.0/24 RFC 5737 TEST-NET-3
		return second == 0 && third == 113
	default: // 224.0.0.0/4 multicast, 240.0.0.0/4 reserved
		return first >= 224
	}
}

// Checker classifies source addresses against a routing table.
type Checker struct {
	table *routing.Table
}

// NewChecker returns a Checker over the given routing table.
func NewChecker(table *routing.Table) *Checker {
	return &Checker{table: table}
}

// Classify classifies src. ingressAS is the AS the traffic entered the
// provider from; pass 0 to skip the origin-validity check (the paper notes
// per-ingress attribution is often unavailable in sampled NetFlow). A
// source that is not IPv4 is covered by no prefix: Unrouted.
func (c *Checker) Classify(src netip.Addr, ingressAS routing.ASN) Class {
	w, ok := compact.IPv4(src)
	if !ok {
		return Unrouted
	}
	return c.ClassifyWord(w, ingressAS)
}

// ClassifyWord is Classify for an IPv4 source given as its big-endian word.
func (c *Checker) ClassifyWord(src uint32, ingressAS routing.ASN) Class {
	if isBogonWord(src) {
		return Bogon
	}
	route, ok := c.table.LookupWord(src)
	if !ok {
		return Unrouted
	}
	if ingressAS != 0 && route.Origin != ingressAS {
		return InvalidOrigin
	}
	return Legit
}

// IsSpoofed is the boolean convenience wrapper around Classify.
func (c *Checker) IsSpoofed(src netip.Addr, ingressAS routing.ASN) bool {
	return c.Classify(src, ingressAS).Spoofed()
}
