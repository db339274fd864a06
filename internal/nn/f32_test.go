package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// TestExpfAccuracy sweeps Expf against math.Exp: the fast path must stay
// within a few float32 ulps across the useful range and agree on the
// overflow/underflow clamps.
func TestExpfAccuracy(t *testing.T) {
	for x := float32(-87); x <= 88; x += 0.0137 {
		got := float64(Expf(x))
		want := math.Exp(float64(x))
		rel := math.Abs(got-want) / want
		if rel > 4e-7 {
			t.Fatalf("Expf(%v) = %v, want %v (rel err %v)", x, got, want, rel)
		}
	}
	if v := Expf(200); !math.IsInf(float64(v), 1) {
		t.Fatalf("Expf(200) = %v, want +Inf", v)
	}
	if v := Expf(-200); v != 0 {
		t.Fatalf("Expf(-200) = %v, want 0", v)
	}
}

// TestSigmoidTanh32Accuracy pins the float32 gate nonlinearities against
// their float64 references within float32 rounding noise.
func TestSigmoidTanh32Accuracy(t *testing.T) {
	for x := float32(-30); x <= 30; x += 0.0211 {
		if got, want := float64(Sigmoid32(x)), Sigmoid(float64(x)); math.Abs(got-want) > 3e-7 {
			t.Fatalf("Sigmoid32(%v) = %v, want %v", x, got, want)
		}
		if got, want := float64(Tanh32(x)), math.Tanh(float64(x)); math.Abs(got-want) > 6e-7 {
			t.Fatalf("Tanh32(%v) = %v, want %v", x, got, want)
		}
	}
}

// TestPackPanels32Deterministic: quantization is a pure function of the
// weights — packing the same matrix twice must produce identical panel
// bytes, the property that makes quantized model load reproducible.
func TestPackPanels32Deterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	w := NewMat(13, 9) // rows not a multiple of the panel width
	w.XavierInit(rng)
	a, err := PackPanels32(w)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PackPanels32(w)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 13 || a.Cols != 9 || a.Panels != 2 || len(a.Data) != 2*9*8 {
		t.Fatalf("pack shape wrong: %+v", a)
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			t.Fatalf("panel byte %d differs between identical packs", i)
		}
	}
	// Every packed weight must appear at its panel slot, padding zero.
	for r := 0; r < 13; r++ {
		for c := 0; c < 9; c++ {
			got := a.Data[(r/panelWidth)*9*panelWidth+c*panelWidth+r%panelWidth]
			if got != float32(w.At(r, c)) {
				t.Fatalf("packed [%d,%d] = %v, want %v", r, c, got, float32(w.At(r, c)))
			}
		}
	}
	for lane := 13 % panelWidth; lane < panelWidth; lane++ {
		for c := 0; c < 9; c++ {
			if v := a.Data[1*9*panelWidth+c*panelWidth+lane]; v != 0 {
				t.Fatalf("padding lane %d col %d = %v, want 0", lane, c, v)
			}
		}
	}
}

// TestPackPanels32RejectsBadWeights: NaN, Inf, and float32-overflowing
// weights must fail quantization, not silently poison inference.
func TestPackPanels32RejectsBadWeights(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300} {
		w := NewMat(4, 3)
		w.Data[5] = bad
		if _, err := PackPanels32(w); err == nil {
			t.Fatalf("PackPanels32 accepted weight %v", bad)
		}
		v := NewVec(6)
		v[2] = bad
		if _, err := QuantizeVec32(v); err == nil {
			t.Fatalf("QuantizeVec32 accepted weight %v", bad)
		}
	}
}

// TestReadParamsRejectsNonFinite: a weight file carrying a NaN or Inf
// (bit corruption, diverged training run) must be rejected at load.
func TestReadParamsRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	w := NewMat(3, 4)
	w.XavierInit(rng)
	params := []Param{{Name: "w", W: w, G: NewMat(3, 4)}}
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		var buf bytes.Buffer
		saved := w.Data[7]
		w.Data[7] = bad
		if err := WriteParams(&buf, params); err != nil {
			t.Fatal(err)
		}
		w.Data[7] = saved
		if err := ReadParams(&buf, params); err == nil {
			t.Fatalf("ReadParams accepted %v weight", bad)
		}
		if w.Data[7] != saved {
			// Partial application before the bad element is fine; the bad
			// element itself must not land.
			t.Fatalf("rejected load overwrote element with %v", w.Data[7])
		}
	}
}

func randBatch32(rng *rand.Rand, rows, cols int) *Batch32 {
	b := &Batch32{}
	b.Resize(rows, cols)
	for i := range b.Data {
		b.Data[i] = float32(rng.NormFloat64())
	}
	return b
}

// TestMulT32MatchesMulVec32Bitwise is the float32 kernel-level contract:
// the batched panel matmul must produce, row for row, exactly the bits
// MulVec32 produces — covering the 4-row main loop and the scalar tail.
func TestMulT32MatchesMulVec32Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 9, 64} {
		w64 := NewMat(12, 9) // 12 rows → panel 0 full, panel 1 padded
		w64.XavierInit(rng)
		w, err := PackPanels32(w64)
		if err != nil {
			t.Fatal(err)
		}
		x := randBatch32(rng, rows, 9)
		var dst Batch32
		x.MulT32(w, &dst)
		want := NewVec32(w.Padded())
		for i := 0; i < rows; i++ {
			w.MulVec32(x.Row(i), want)
			got := dst.Row(i)
			for r := range want {
				if math.Float32bits(got[r]) != math.Float32bits(want[r]) {
					t.Fatalf("rows=%d: MulT32 row %d col %d = %v, MulVec32 = %v", rows, i, r, got[r], want[r])
				}
			}
		}
	}
}

// TestMulVec32MatchesFloat64 sanity-checks the quantized kernel against
// the float64 MulVec within quantization noise (not bitwise — the inputs
// themselves were narrowed).
func TestMulVec32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	w64 := NewMat(16, 11)
	w64.XavierInit(rng)
	w, err := PackPanels32(w64)
	if err != nil {
		t.Fatal(err)
	}
	x64 := NewVec(11)
	for i := range x64 {
		x64[i] = rng.NormFloat64()
	}
	x := Narrow32(x64, nil)
	got := NewVec32(w.Padded())
	w.MulVec32(x, got)
	want := NewVec(16)
	w64.MulVec(x64, want)
	for r := 0; r < 16; r++ {
		if math.Abs(float64(got[r])-want[r]) > 1e-5 {
			t.Fatalf("row %d: f32 %v vs f64 %v", r, got[r], want[r])
		}
	}
}

// TestStepBatch32MatchesStep32Bitwise: the float32 batched step must be
// bit-identical to the float32 sequential step, stream for stream — the
// same invariant the float64 path pins, which lets the engine batch
// channels without perturbing survival outputs.
func TestStepBatch32MatchesStep32Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, shape := range []struct{ in, hd int }{{5, 7}, {21, 10}} {
		testStepBatch32MatchesStep32(t, rng, shape.in, shape.hd)
	}
}

func testStepBatch32MatchesStep32(t *testing.T, rng *rand.Rand, in, hd int) {
	l64 := NewLSTM(in, hd, rng)
	l, err := l64.Quantize32()
	if err != nil {
		t.Fatal(err)
	}
	for _, B := range []int{1, 3, 4, 6, 16} {
		hs, cs := &Batch32{}, &Batch32{}
		hs.Resize(B, hd)
		cs.Resize(B, hd)
		for i := range hs.Data {
			hs.Data[i], cs.Data[i] = 0, 0
		}
		refH := make([]Vec32, B)
		refC := make([]Vec32, B)
		for i := range refH {
			refH[i] = NewVec32(hd)
			refC[i] = NewVec32(hd)
		}
		var bs BatchScratch32
		var sc StepScratch32
		for step := 0; step < 9; step++ {
			xs := randBatch32(rng, B, in)
			for i := range xs.Data {
				if rng.Intn(2) == 0 {
					xs.Data[i] = 0 // columns the batched projection skips and Step32 does not
				}
			}
			l.StepBatch32(hs, cs, xs, &bs)
			for i := 0; i < B; i++ {
				l.Step32(refH[i], refC[i], xs.Row(i), &sc)
				for j := 0; j < hd; j++ {
					if math.Float32bits(hs.Row(i)[j]) != math.Float32bits(refH[i][j]) ||
						math.Float32bits(cs.Row(i)[j]) != math.Float32bits(refC[i][j]) {
						t.Fatalf("B=%d step %d stream %d unit %d: batch (%v,%v) != sequential (%v,%v)",
							B, step, i, j, hs.Row(i)[j], cs.Row(i)[j], refH[i][j], refC[i][j])
					}
				}
			}
		}
	}
}

// TestStep32TracksStep64 runs the quantized cell beside the float64 cell
// on the same inputs: hidden states must track within quantization-level
// tolerance over many steps (no drift blow-up from the fast nonlinearities).
func TestStep32TracksStep64(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	l64 := NewLSTM(9, 11, rng)
	l32, err := l64.Quantize32()
	if err != nil {
		t.Fatal(err)
	}
	h64, c64 := NewVec(11), NewVec(11)
	h32, c32 := NewVec32(11), NewVec32(11)
	var sc64 StepScratch
	var sc32 StepScratch32
	x64 := NewVec(9)
	x32 := NewVec32(9)
	for step := 0; step < 200; step++ {
		for i := range x64 {
			x64[i] = rng.NormFloat64()
			x32[i] = float32(x64[i])
		}
		l64.Step(h64, c64, x64, &sc64)
		l32.Step32(h32, c32, x32, &sc32)
	}
	for j := 0; j < 11; j++ {
		if d := math.Abs(float64(h32[j]) - h64[j]); d > 1e-3 {
			t.Fatalf("unit %d drifted: f32 %v vs f64 %v (|Δ|=%v)", j, h32[j], h64[j], d)
		}
	}
}

// TestDenseForwardBatch32MatchesForwardInto32Bitwise pins the batched
// quantized head against its scalar path.
func TestDenseForwardBatch32MatchesForwardInto32Bitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	d64 := NewDense(6, 3, rng)
	d, err := d64.Quantize32()
	if err != nil {
		t.Fatal(err)
	}
	for _, B := range []int{1, 4, 5} {
		xs := randBatch32(rng, B, 6)
		var out Batch32
		d.ForwardBatch32(xs, &out)
		want := NewVec32(d.Padded())
		for i := 0; i < B; i++ {
			d.ForwardInto32(xs.Row(i), want)
			for r := 0; r < d.Out; r++ {
				if math.Float32bits(out.Row(i)[r]) != math.Float32bits(want[r]) {
					t.Fatalf("B=%d row %d out %d: %v != %v", B, i, r, out.Row(i)[r], want[r])
				}
			}
		}
	}
}

// TestStep32AllocsZero pins the float32 sequential path at zero
// allocations once state and scratch are warm.
func TestStep32AllocsZero(t *testing.T) {
	l64 := NewLSTM(8, 12, rand.New(rand.NewSource(28)))
	l, err := l64.Quantize32()
	if err != nil {
		t.Fatal(err)
	}
	h, c := NewVec32(12), NewVec32(12)
	x := NewVec32(8)
	var sc StepScratch32
	l.Step32(h, c, x, &sc)
	allocs := testing.AllocsPerRun(100, func() {
		l.Step32(h, c, x, &sc)
	})
	if allocs != 0 {
		t.Fatalf("LSTM32.Step32 with scratch allocates %v/op, want 0", allocs)
	}
}

// TestStepBatch32AllocsZero pins the float32 batched path at zero
// allocations at both the small and large batch shapes.
func TestStepBatch32AllocsZero(t *testing.T) {
	l64 := NewLSTM(8, 12, rand.New(rand.NewSource(29)))
	l, err := l64.Quantize32()
	if err != nil {
		t.Fatal(err)
	}
	for _, B := range []int{8, 64} {
		hs, cs, xs := &Batch32{}, &Batch32{}, &Batch32{}
		hs.Resize(B, 12)
		cs.Resize(B, 12)
		xs.Resize(B, 8)
		var bs BatchScratch32
		l.StepBatch32(hs, cs, xs, &bs)
		allocs := testing.AllocsPerRun(100, func() {
			l.StepBatch32(hs, cs, xs, &bs)
		})
		if allocs != 0 {
			t.Fatalf("B=%d: LSTM32.StepBatch32 allocates %v/op, want 0", B, allocs)
		}
	}
}
