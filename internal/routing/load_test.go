package routing

import (
	"bytes"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
)

func TestLoadTextBasic(t *testing.T) {
	input := `
# synthetic table
11.0.0.0/14 64500
23.4.0.0/16 64501
`
	tbl, err := LoadText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	r, ok := tbl.Lookup(netip.MustParseAddr("11.1.2.3"))
	if !ok || r.Origin != 64500 {
		t.Fatalf("lookup: %v %v", r, ok)
	}
}

func TestLoadTextErrors(t *testing.T) {
	for name, input := range map[string]string{
		"fields": "11.0.0.0/14",
		"prefix": "nope 64500",
		"asn":    "11.0.0.0/14 notanumber",
		"ipv6":   "2001:db8::/32 64500",
	} {
		if _, err := LoadText(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestWriteTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tbl := SyntheticTable(16, rng)
	var buf bytes.Buffer
	if err := tbl.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	tbl2, err := LoadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tbl2.Len() != tbl.Len() {
		t.Fatalf("round trip lost prefixes: %d vs %d", tbl2.Len(), tbl.Len())
	}
	// Probe lookups must agree.
	for i := 0; i < 500; i++ {
		addr := netip.AddrFrom4([4]byte{byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))})
		r1, ok1 := tbl.Lookup(addr)
		r2, ok2 := tbl2.Lookup(addr)
		if ok1 != ok2 || (ok1 && (r1.Prefix != r2.Prefix || r1.Origin != r2.Origin)) {
			t.Fatalf("lookup disagreement for %v: %v/%v vs %v/%v", addr, r1, ok1, r2, ok2)
		}
	}
}

// TestLoadTextMappedAndHostRoutes pins two cases the table writer used to
// get wrong: a /32 route (WriteText indexed a fifth address byte) and an
// IPv4-mapped prefix, which is the IPv4 prefix it maps
// (::ffff:10.0.0.0/104 is 10.0.0.0/8) rather than a 104-bit trie path.
func TestLoadTextMappedAndHostRoutes(t *testing.T) {
	tbl, err := LoadText(strings.NewReader("::ffff:10.0.0.0/104 9\n192.0.2.7/32 8\n"))
	if err != nil {
		t.Fatal(err)
	}
	for addr, want := range map[string]ASN{"10.9.9.9": 9, "192.0.2.7": 8} {
		if r, ok := tbl.Lookup(netip.MustParseAddr(addr)); !ok || r.Origin != want {
			t.Errorf("Lookup(%s) = %+v, %v; want origin %d", addr, r, ok, want)
		}
	}
	var b bytes.Buffer
	if err := tbl.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if got, want := b.String(), "10.0.0.0/8 9\n192.0.2.7/32 8\n"; got != want {
		t.Fatalf("WriteText = %q, want %q", got, want)
	}
	if _, err := LoadText(strings.NewReader("2001:db8::/32 1\n")); err == nil {
		t.Error("an IPv6 prefix loaded")
	}
}
