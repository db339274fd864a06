package spoof

import (
	"net/netip"
	"testing"

	"github.com/xatu-go/xatu/internal/routing"
)

func table(t *testing.T) *routing.Table {
	t.Helper()
	var tbl routing.Table
	for _, r := range []struct {
		p string
		a routing.ASN
	}{
		{"11.0.0.0/8", 64500},
		{"23.0.0.0/8", 64501},
	} {
		if err := tbl.Insert(netip.MustParsePrefix(r.p), r.a); err != nil {
			t.Fatal(err)
		}
	}
	return &tbl
}

func TestBogonDetection(t *testing.T) {
	bogons := []string{
		"10.1.2.3", "192.168.1.1", "172.16.5.5", "172.31.255.255",
		"100.64.0.1", "192.0.2.9", "198.51.100.7", "203.0.113.200",
		"127.0.0.1", "169.254.1.1", "224.0.0.5", "240.1.1.1", "0.1.2.3",
	}
	for _, s := range bogons {
		if !IsBogon(netip.MustParseAddr(s)) {
			t.Errorf("IsBogon(%s) = false, want true", s)
		}
	}
	legit := []string{"11.2.3.4", "8.8.8.8", "172.32.0.1", "100.128.0.1", "223.255.255.255"}
	for _, s := range legit {
		if IsBogon(netip.MustParseAddr(s)) {
			t.Errorf("IsBogon(%s) = true, want false", s)
		}
	}
}

func TestClassify(t *testing.T) {
	c := NewChecker(table(t))
	cases := []struct {
		addr    string
		ingress routing.ASN
		want    Class
	}{
		{"10.0.0.1", 0, Bogon},
		{"99.1.2.3", 0, Unrouted},          // not in table
		{"11.1.2.3", 0, Legit},             // routed, no ingress check
		{"11.1.2.3", 64500, Legit},         // matching origin
		{"11.1.2.3", 64501, InvalidOrigin}, // wrong origin
		{"23.200.1.1", 64501, Legit},       // matching origin
	}
	for _, cse := range cases {
		got := c.Classify(netip.MustParseAddr(cse.addr), cse.ingress)
		if got != cse.want {
			t.Errorf("Classify(%s, %d) = %v, want %v", cse.addr, cse.ingress, got, cse.want)
		}
	}
}

func TestSpoofedPredicate(t *testing.T) {
	if Legit.Spoofed() {
		t.Fatal("Legit must not be spoofed")
	}
	for _, c := range []Class{Bogon, Unrouted, InvalidOrigin} {
		if !c.Spoofed() {
			t.Fatalf("%v must be spoofed", c)
		}
	}
}

func TestClassString(t *testing.T) {
	want := map[Class]string{
		Legit: "legit", Bogon: "bogon", Unrouted: "unrouted",
		InvalidOrigin: "invalid-origin", Class(99): "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

// TestImperfection documents the designed incompleteness of the A3 signal:
// a spoofed address chosen inside routed space with a plausible ingress AS
// passes every check (the paper: "We likely miss much-spoofed traffic").
func TestImperfection(t *testing.T) {
	c := NewChecker(table(t))
	// Attacker spoofs 11.9.9.9 while entering from AS 64500 (its legit origin).
	if c.IsSpoofed(netip.MustParseAddr("11.9.9.9"), 64500) {
		t.Fatal("cleverly spoofed routed address should evade the obvious-spoof check")
	}
}

// bogonPrefixes is the oracle for isBogonWord: the reserved ranges as a
// prefix list, the form IsBogon used to scan per source.
var bogonPrefixes = []string{
	"0.0.0.0/8",       // "this network"
	"10.0.0.0/8",      // RFC 1918
	"100.64.0.0/10",   // RFC 6598 shared address space
	"127.0.0.0/8",     // loopback
	"169.254.0.0/16",  // link local
	"172.16.0.0/12",   // RFC 1918
	"192.0.2.0/24",    // RFC 5737 TEST-NET-1
	"192.168.0.0/16",  // RFC 1918
	"198.18.0.0/15",   // benchmarking
	"198.51.100.0/24", // RFC 5737 TEST-NET-2
	"203.0.113.0/24",  // RFC 5737 TEST-NET-3
	"224.0.0.0/4",     // multicast
	"240.0.0.0/4",     // reserved
}

// TestBogonSwitchMatchesPrefixList checks the first-octet switch against
// the prefix list for every first-three-octet combination at host bytes 0,
// 1 and 255, and IsBogon against netip's own Contains on a sample.
func TestBogonSwitchMatchesPrefixList(t *testing.T) {
	type rng struct{ base, shift uint32 }
	var ranges []rng
	var prefixes []netip.Prefix
	for _, s := range bogonPrefixes {
		p := netip.MustParsePrefix(s)
		prefixes = append(prefixes, p)
		b := p.Addr().As4()
		shift := uint32(32 - p.Bits())
		ranges = append(ranges, rng{(uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])) >> shift, shift})
	}
	for hi := uint32(0); hi < 1<<24; hi++ {
		for _, host := range [3]uint32{0, 1, 255} {
			w := hi<<8 | host
			want := false
			for _, r := range ranges {
				if w>>r.shift == r.base {
					want = true
					break
				}
			}
			if isBogonWord(w) != want {
				t.Fatalf("isBogonWord(%#08x) = %v, prefix list says %v", w, !want, want)
			}
		}
	}
	for w := uint32(0); w < 1<<24; w += 97 {
		addr := netip.AddrFrom4([4]byte{byte(w >> 16), byte(w >> 8), byte(w), 1})
		want := false
		for _, p := range prefixes {
			want = want || p.Contains(addr)
		}
		if IsBogon(addr) != want {
			t.Fatalf("IsBogon(%v) = %v, want %v", addr, !want, want)
		}
	}
}

// TestNonIPv4Sources: a 4-in-6 source is classified as its IPv4 form; a
// source that is not IPv4 is no bogon and covered by no prefix.
func TestNonIPv4Sources(t *testing.T) {
	c := NewChecker(table(t))
	for mapped, want := range map[string]Class{"::ffff:10.1.2.3": Bogon, "::ffff:11.2.3.4": Legit, "::ffff:12.2.3.4": Unrouted} {
		if got := c.Classify(netip.MustParseAddr(mapped), 0); got != want {
			t.Errorf("Classify(%s) = %v, want %v", mapped, got, want)
		}
	}
	for _, a := range []netip.Addr{netip.MustParseAddr("2001:db8::1"), {}} {
		if IsBogon(a) || c.Classify(a, 0) != Unrouted || !c.IsSpoofed(a, 0) {
			t.Errorf("%v: want no bogon, Unrouted", a)
		}
	}
}
