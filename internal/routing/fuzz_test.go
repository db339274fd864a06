package routing

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"slices"
	"testing"
)

// FuzzRoutingLoadText feeds arbitrary text to LoadText, the reader of the
// routes.txt that xatu-train writes and xatu-detect loads. Whatever the
// input, LoadText must return an error or a table; the table must write
// out as text that loads again and writes out the same bytes (load →
// write → load → write is stable). The committed corpus
// (testdata/fuzz/FuzzRoutingLoadText) holds nested prefixes, a default
// route, an unmasked prefix, a re-announced prefix and an IPv4-mapped
// prefix.
func FuzzRoutingLoadText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := LoadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var w1 bytes.Buffer
		if err := tab.WriteText(&w1); err != nil {
			t.Fatal(err)
		}
		tab2, err := LoadText(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("written text does not load: %v\n%s", err, w1.Bytes())
		}
		if tab2.Len() != tab.Len() {
			t.Fatalf("reload has %d routes, want %d", tab2.Len(), tab.Len())
		}
		var w2 bytes.Buffer
		if err := tab2.WriteText(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("round trip unstable:\n%s---\n%s", w1.Bytes(), w2.Bytes())
		}
	})
}

// FuzzRoutingLookup inserts prefixes decoded from the fuzz bytes, in fuzz
// order, and checks the table against its definition. Each prefix takes
// six bytes: four address bytes; a length byte (mod 33 is the length, and
// bit 7 inserts it as an IPv4-mapped IPv6 prefix); and an origin.
// LookupWord must equal a linear-scan longest-prefix match (a re-announced
// prefix keeps its latest origin), and OriginWord its origin, at every
// probed word: each prefix's first and last address and their neighbours,
// and the words of the trailing bytes. WriteText must load back as a
// table that writes the same bytes. The committed corpus
// (testdata/fuzz/FuzzRoutingLookup) holds a default route, a /32, nested
// prefixes, a re-announced prefix and a 4-in-6 prefix.
func FuzzRoutingLookup(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var tab Table
		var routes []Route // the reference: distinct prefixes, latest origin
		var probes []uint32
		for ; len(data) >= 6; data = data[6:] {
			a := netip.AddrFrom4([4]byte(data[:4]))
			bits := int(data[4]&0x7f) % 33
			p := netip.PrefixFrom(a, bits).Masked()
			in := p
			if data[4]&0x80 != 0 {
				in = netip.PrefixFrom(netip.AddrFrom16(a.As16()), 96+bits)
			}
			origin := ASN(data[5])
			if err := tab.Insert(in, origin); err != nil {
				t.Fatalf("Insert(%v): %v", in, err)
			}
			i := slices.IndexFunc(routes, func(r Route) bool { return r.Prefix == p })
			if i < 0 {
				routes = append(routes, Route{Prefix: p, Origin: origin})
			} else {
				routes[i].Origin = origin
			}
			first := binary.BigEndian.Uint32(p.Addr().AsSlice())
			last := first | uint32(uint64(1)<<(32-bits)-1)
			probes = append(probes, first-1, first, last, last+1)
		}
		for ; len(data) >= 4; data = data[4:] {
			probes = append(probes, binary.BigEndian.Uint32(data))
		}
		for _, w := range probes {
			addr := netip.AddrFrom4([4]byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), byte(w)})
			var want Route
			found := false
			for _, r := range routes {
				if r.Prefix.Contains(addr) && (!found || r.Prefix.Bits() > want.Prefix.Bits()) {
					want, found = r, true
				}
			}
			if got, ok := tab.LookupWord(w); ok != found || got != want {
				t.Fatalf("LookupWord(%v) = %v, %v; want %v, %v", addr, got, ok, want, found)
			}
			if origin, ok := tab.OriginWord(w); ok != found || origin != want.Origin {
				t.Fatalf("OriginWord(%v) = %v, %v; want %v, %v", addr, origin, ok, want.Origin, found)
			}
		}
		if tab.Len() != len(routes) {
			t.Fatalf("Len = %d, want %d", tab.Len(), len(routes))
		}
		var w1, w2 bytes.Buffer
		if err := tab.WriteText(&w1); err != nil {
			t.Fatal(err)
		}
		back, err := LoadText(bytes.NewReader(w1.Bytes()))
		if err != nil {
			t.Fatalf("written text does not load: %v\n%s", err, w1.Bytes())
		}
		if err := back.WriteText(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("round trip unstable:\n%s---\n%s", w1.Bytes(), w2.Bytes())
		}
	})
}
