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

// FuzzRestoreStream feeds arbitrary bytes to the XSC1 stream reader, as
// the float64 oracle (RestoreStream) and as a serving stream
// (BatchRunner32.RestoreStream) over one tiny model. Whatever the input,
// the reader must return an error or a stream; a stream it accepts must
// push, checkpoint, and restore from that checkpoint into a stream whose
// checkpoint is the same bytes, and the two must then push to the same
// survival value and the same bytes again. The committed corpus
// (testdata/fuzz/FuzzRestoreStream) holds a checkpoint with both pools part
// full, truncations of it, a wrong vector length, an out-of-range bufN and
// a NaN state.
func FuzzRestoreStream(f *testing.F) {
	m, err := New(tinyConfig())
	if err != nil {
		f.Fatal(err)
	}
	x := []float64{0.5, 0, -1.25, 2}
	ckpt := func(t *testing.T, s *Stream) []byte {
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(t *testing.T, s *Stream, restore func([]byte) (*Stream, error)) {
		s.Push(x)
		a := ckpt(t, s)
		s2, err := restore(a)
		if err != nil {
			t.Fatalf("restoring a checkpoint of a restored stream: %v", err)
		}
		if !bytes.Equal(ckpt(t, s2), a) {
			t.Fatal("checkpoint/restore/checkpoint changed the bytes")
		}
		v, v2 := s.Push(x), s2.Push(x)
		if math.Float64bits(v) != math.Float64bits(v2) {
			t.Fatalf("restored stream pushed to %v, original to %v", v2, v)
		}
		if !bytes.Equal(ckpt(t, s2), ckpt(t, s)) {
			t.Fatal("restored and original streams diverged")
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := RestoreStream(bytes.NewReader(data), m); err == nil {
			check(t, s, func(b []byte) (*Stream, error) { return RestoreStream(bytes.NewReader(b), m) })
		}
		r, err := NewBatchRunner32(m)
		if err != nil {
			t.Fatal(err)
		}
		if s, err := r.RestoreStream(bytes.NewReader(data)); err == nil {
			check(t, s, func(b []byte) (*Stream, error) { return r.RestoreStream(bytes.NewReader(b)) })
		}
	})
}
