package attackhist

import (
	"bytes"
	"testing"
)

// FuzzAttackhistLoad feeds arbitrary bytes to Registry.Load, the reader
// of the history.snap that xatu-train writes and xatu-detect loads.
// Whatever the input, Load must return an error or load; what it loaded
// must save as a snapshot that loads again and saves the same bytes (load
// → save → load → save is stable). The committed corpus
// (testdata/fuzz/FuzzAttackhistLoad) holds attacker and alert lines, a
// time-zone offset, an attacker seen once, an out-of-range type, and
// offsets that move an attacker time out of years 0000–9999.
func FuzzAttackhistLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reg := NewRegistry()
		if err := reg.Load(bytes.NewReader(data)); err != nil {
			return
		}
		var s1 bytes.Buffer
		if err := reg.Save(&s1); err != nil {
			t.Fatalf("loaded snapshot does not save: %v", err)
		}
		reg2 := NewRegistry()
		if err := reg2.Load(bytes.NewReader(s1.Bytes())); err != nil {
			t.Fatalf("saved snapshot does not load: %v\n%s", err, s1.Bytes())
		}
		var s2 bytes.Buffer
		if err := reg2.Save(&s2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
			t.Fatalf("round trip unstable:\n%s---\n%s", s1.Bytes(), s2.Bytes())
		}
	})
}
