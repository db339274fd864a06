package routing

import (
	"bytes"
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
