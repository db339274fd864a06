package blocklist

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"
)

func TestLoadTextBasic(t *testing.T) {
	input := `
# comment line
bot,11.22.33.44,2019-04-01T00:00:00Z
ddos-source,45.1.2.0/24,2019-04-20T12:00:00Z,720h

scanner,66.1.0.0/22,2019-04-10T00:00:00Z
`
	reg := NewRegistry()
	n, err := LoadText(strings.NewReader(input), reg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1+1+4 {
		t.Fatalf("entries = %d, want 6", n)
	}
	at := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	if !reg.ListedAt(Bot, netip.MustParseAddr("11.22.33.200"), at) {
		t.Fatal("single address must aggregate to its /24")
	}
	if !reg.ListedAt(DDoSSource, netip.MustParseAddr("45.1.2.9"), at) {
		t.Fatal("/24 prefix entry missing")
	}
	// /22 expands into 4 /24s.
	for _, s := range []string{"66.1.0.1", "66.1.1.1", "66.1.2.1", "66.1.3.1"} {
		if !reg.ListedAt(Scanner, netip.MustParseAddr(s), at) {
			t.Fatalf("/22 expansion missing %s", s)
		}
	}
	if reg.ListedAt(Scanner, netip.MustParseAddr("66.1.4.1"), at) {
		t.Fatal("/22 expansion leaked beyond its range")
	}
	// TTL respected.
	if reg.ListedAt(DDoSSource, netip.MustParseAddr("45.1.2.9"), at.AddDate(0, 3, 0)) {
		t.Fatal("ttl entry must expire")
	}
}

func TestLoadTextErrors(t *testing.T) {
	cases := map[string]string{
		"bad-fields":   "bot,1.2.3.4",
		"bad-category": "nope,1.2.3.4,2019-04-01T00:00:00Z",
		"bad-time":     "bot,1.2.3.4,yesterday",
		"bad-ttl":      "bot,1.2.3.4,2019-04-01T00:00:00Z,forever",
		"bad-addr":     "bot,notanip,2019-04-01T00:00:00Z",
		"bad-prefix":   "bot,1.2.3.4/99,2019-04-01T00:00:00Z",
		"ipv6-prefix":  "bot,2001:db8::/32,2019-04-01T00:00:00Z",
		"too-broad":    "bot,10.0.0.0/8,2019-04-01T00:00:00Z",
		"five-fields":  "bot,1.2.3.4,2019-04-01T00:00:00Z,1h,extra",
	}
	for name, line := range cases {
		reg := NewRegistry()
		if _, err := LoadText(strings.NewReader(line), reg); err == nil {
			t.Errorf("%s: expected error for %q", name, line)
		}
	}
}

func TestLoadTextSixteenExpansion(t *testing.T) {
	reg := NewRegistry()
	n, err := LoadText(strings.NewReader("spam-source,100.200.0.0/16,2019-04-01T00:00:00Z"), reg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 256 {
		t.Fatalf("entries = %d, want 256", n)
	}
	at := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	if !reg.ListedAt(SpamSource, netip.MustParseAddr("100.200.255.1"), at) {
		t.Fatal("last /24 of the /16 missing")
	}
}

func TestWriteTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	listed := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	r.Add(Bot, netip.MustParseAddr("11.22.33.44"), listed, 0)
	r.Add(DDoSSource, netip.MustParseAddr("45.1.2.3"), listed, 720*time.Hour)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	n, err := LoadText(bytes.NewReader(buf.Bytes()), r2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("entries = %d", n)
	}
	at := listed.Add(time.Hour)
	if !r2.ListedAt(Bot, netip.MustParseAddr("11.22.33.99"), at) {
		t.Fatal("Bot entry lost")
	}
	if !r2.ListedAt(DDoSSource, netip.MustParseAddr("45.1.2.200"), at) {
		t.Fatal("DDoSSource entry lost")
	}
	if r2.ListedAt(DDoSSource, netip.MustParseAddr("45.1.2.200"), listed.Add(721*time.Hour)) {
		t.Fatal("ttl lost in round trip")
	}
	// Deterministic output.
	var buf2 bytes.Buffer
	if err := r.WriteText(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("WriteText must be deterministic")
	}
}

// TestLoadTextMappedPrefix pins that an IPv4-mapped IPv6 prefix is read as
// the IPv4 prefix it maps (::ffff:a.b.c.d/112 is a.b.c.d/16), not as one
// /24 because its IPv6 length exceeds 24; a listing time whose UTC form
// has no four-digit year is refused, since WriteText could not write it
// back.
func TestLoadTextMappedPrefix(t *testing.T) {
	reg := NewRegistry()
	n, err := LoadText(strings.NewReader("bot,::ffff:11.22.0.0/112,2019-04-01T00:00:00Z\n"), reg)
	if err != nil {
		t.Fatal(err)
	}
	if n != 256 {
		t.Fatalf("entries = %d, want the 256 /24s of 11.22.0.0/16", n)
	}
	if !reg.ListedAt(Bot, netip.MustParseAddr("11.22.255.9"), time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatal("the last /24 of the mapped /16 is not listed")
	}
	for _, line := range []string{
		"bot,::ffff:0.0.0.0/90,2019-04-01T00:00:00Z", // shorter than the mapping
		"bot,2001:db8::/112,2019-04-01T00:00:00Z",    // not mapped
		"bot,1.2.3.4,0000-01-01T00:00:00+01:00",      // year -1 in UTC
		"bot,1.2.3.4,9999-12-31T23:00:00-05:00,1h",   // year 10000 in UTC
	} {
		if _, err := LoadText(strings.NewReader(line+"\n"), NewRegistry()); err == nil {
			t.Errorf("%q loaded", line)
		}
	}
}
