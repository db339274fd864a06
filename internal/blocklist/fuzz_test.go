package blocklist

import (
	"bytes"
	"testing"
)

// FuzzBlocklistLoadText feeds arbitrary text to LoadText, the reader of
// the blocklists.txt that xatu-train writes and xatu-detect loads.
// Whatever the input, LoadText must return an error or load; what it
// loaded must write out as text that loads again and writes out the same
// bytes (load → write → load → write is stable). The committed corpus
// (testdata/fuzz/FuzzBlocklistLoadText) holds permanent and expiring
// entries, a /16 expansion, comments, a re-added /24, a time-zone offset,
// fractional seconds, an IPv4-mapped prefix, and offsets that move a
// listing time out of years 0000–9999.
func FuzzBlocklistLoadText(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := NewRegistry()
		if _, err := LoadText(bytes.NewReader(data), reg); err != nil {
			return
		}
		var w1 bytes.Buffer
		if err := reg.WriteText(&w1); err != nil {
			t.Fatal(err)
		}
		reg2 := NewRegistry()
		if _, err := LoadText(bytes.NewReader(w1.Bytes()), reg2); err != nil {
			t.Fatalf("written text does not load: %v\n%s", err, w1.Bytes())
		}
		var w2 bytes.Buffer
		if err := reg2.WriteText(&w2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("round trip unstable:\n%s---\n%s", w1.Bytes(), w2.Bytes())
		}
	})
}
