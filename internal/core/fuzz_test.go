package core

import (
	"bytes"
	"math"
	"testing"
)

// FuzzLoad feeds arbitrary bytes to Load, the model reader behind
// xatu.LoadModel (header length, JSON configuration, then nn.ReadParams).
// Whatever the input, Load must return an error or a model, never panic
// or ask for unbounded memory; a model it accepts must hold only finite
// weights and survive a Save/Load round trip byte for byte. The committed
// corpus (testdata/fuzz/FuzzLoad) holds a small valid model, truncations
// of it, a wrong shape, a NaN weight and an oversized header.
func FuzzLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, p := range m.Params() {
			for _, v := range p.W.Data {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("loaded a non-finite weight in %s", p.Name)
				}
			}
		}
		var a, b bytes.Buffer
		if err := m.Save(&a); err != nil {
			t.Fatal(err)
		}
		m2, err := Load(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("reloading a saved model: %v", err)
		}
		if err := m2.Save(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatal("Save/Load/Save changed the bytes")
		}
	})
}
