package nn

import (
	"math/rand"
	"testing"
)

// Benchmark dimensions mirror the deployed detector: 273 input features
// into the default laptop-scale hidden width.
const (
	benchIn     = 273
	benchHidden = 16
)

func benchLSTM(b *testing.B) *LSTM {
	b.Helper()
	return NewLSTM(benchIn, benchHidden, rand.New(rand.NewSource(1)))
}

// BenchmarkLSTMStep is the single-stream hot path: one timestep with
// caller-owned state and scratch (zero allocations).
func BenchmarkLSTMStep(b *testing.B) {
	l := benchLSTM(b)
	h, c := NewVec(benchHidden), NewVec(benchHidden)
	x := NewVec(benchIn)
	for i := range x {
		x[i] = float64(i%7) * 0.1
	}
	var sc StepScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step(h, c, x, &sc)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// benchStepBatch32 advances B independent streams per op through the
// quantized float32 panel kernels; steps/sec counts stream-steps, so it
// compares directly with BenchmarkLSTMStepF32.
func benchStepBatch32(b *testing.B, B int) {
	l, err := benchLSTM(b).Quantize32()
	if err != nil {
		b.Fatal(err)
	}
	hs, cs, xs := &Batch32{}, &Batch32{}, &Batch32{}
	hs.Resize(B, benchHidden)
	cs.Resize(B, benchHidden)
	xs.Resize(B, benchIn)
	for i := range xs.Data {
		xs.Data[i] = float32(i%7) * 0.1
	}
	var bs BatchScratch32
	l.StepBatch32(hs, cs, xs, &bs) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.StepBatch32(hs, cs, xs, &bs)
	}
	b.ReportMetric(float64(b.N)*float64(B)/b.Elapsed().Seconds(), "steps/sec")
}

func BenchmarkLSTMStepBatch8F32(b *testing.B)  { benchStepBatch32(b, 8) }
func BenchmarkLSTMStepBatch64F32(b *testing.B) { benchStepBatch32(b, 64) }

// BenchmarkLSTMStepF32 is the single-stream float32 path.
func BenchmarkLSTMStepF32(b *testing.B) {
	l, err := benchLSTM(b).Quantize32()
	if err != nil {
		b.Fatal(err)
	}
	h, c := NewVec32(benchHidden), NewVec32(benchHidden)
	x := NewVec32(benchIn)
	for i := range x {
		x[i] = float32(i%7) * 0.1
	}
	var sc StepScratch32
	l.Step32(h, c, x, &sc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step32(h, c, x, &sc)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// The three parts of one serving cell step, timed apart at the shape of a
// customer-step on the wide benchmark workload (six channels, Hidden=64,
// 273 features), ns per row: the split that says which part of the step is
// worth attacking next.
const (
	benchCellRows   = 6
	benchCellHidden = 64
)

func benchCell(b *testing.B) *LSTM32 {
	b.Helper()
	l, err := NewLSTM(benchIn, benchCellHidden, rand.New(rand.NewSource(1))).Quantize32()
	if err != nil {
		b.Fatal(err)
	}
	return l
}

func reportPerRow(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchCellRows), "ns/row")
}

// BenchmarkInputProjection is W_x·x by the non-zero-column kernel,
// column scan included, at a live feature vector's density and fully dense.
func BenchmarkInputProjection(b *testing.B) {
	for _, bc := range []struct {
		name    string
		density float64
	}{{"density=0.18", 0.18}, {"density=1", 1}} {
		b.Run(bc.name, func(b *testing.B) {
			l := benchCell(b)
			rng := rand.New(rand.NewSource(2))
			var xs, pre Batch32
			xs.Resize(benchCellRows, benchIn)
			pre.Resize(benchCellRows, l.Wx.Padded())
			for i := 0; i < xs.Rows; i++ {
				copy(xs.Row(i), sparseInput32(rng, benchIn, bc.density, false))
			}
			var nz []int32
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i := 0; i < xs.Rows; i++ {
					nz = NonZero32(xs.Row(i), nz)
					l.Wx.MulVecNZ32(xs.Row(i), nz, pre.Row(i))
				}
			}
			reportPerRow(b)
		})
	}
}

// BenchmarkRecurrentProjection is W_h·h by the dense batched kernel.
func BenchmarkRecurrentProjection(b *testing.B) {
	l := benchCell(b)
	hs := randBatch32(rand.New(rand.NewSource(3)), benchCellRows, benchCellHidden)
	var rec Batch32
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		hs.MulT32(l.Wh, &rec)
	}
	reportPerRow(b)
}

// BenchmarkLSTMGates32 is the gate nonlinearities and the c/h update over
// fixed pre-activations (the cell state is restored each pass so the
// values do not drift into the clamps).
func BenchmarkLSTMGates32(b *testing.B) {
	l := benchCell(b)
	rng := rand.New(rand.NewSource(4))
	pre := randBatch32(rng, benchCellRows, l.Wx.Padded())
	rec := randBatch32(rng, benchCellRows, l.Wx.Padded())
	c0 := randBatch32(rng, benchCellRows, benchCellHidden)
	var hs, cs Batch32
	hs.Resize(benchCellRows, benchCellHidden)
	cs.Resize(benchCellRows, benchCellHidden)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		copy(cs.Data, c0.Data)
		for i := 0; i < benchCellRows; i++ {
			lstmGates32(benchCellHidden, pre.Row(i), rec.Row(i), l.B, hs.Row(i), cs.Row(i))
		}
	}
	reportPerRow(b)
}

// benchTrainTape prepares a warmed BatchTape of B sequences × benchSeqLen
// steps plus full gradient injections, the shape of one training chunk.
const benchSeqLen = 60

func benchTrainTape(b *testing.B, B int) (*LSTM, *BatchTape, []Batch, []bool) {
	b.Helper()
	return benchTape(b, benchLSTM(b), B, func(tp *BatchTape) {
		for t := 0; t < benchSeqLen; t++ {
			for i := range tp.Xs[t].Data {
				tp.Xs[t].Data[i] = float64(i%7) * 0.1
			}
		}
	})
}

// benchFitTape is benchTrainTape at the shape of the benchmark's train_fit
// workload: Hidden 64, 273 features at 18 % density (so the sparse input
// projection runs), a lane of 12 sequences.
func benchFitTape(b *testing.B) (*LSTM, *BatchTape, []Batch, []bool) {
	return benchSparseTape(b, benchCellHidden, 12)
}

// benchH200Tape is the same 18 %-dense input at the paper's Hidden 200 in
// a lane of four, the lane size train_fit's mixed-length batches actually
// form: the float64 baseline for a float32 training lane.
func benchH200Tape(b *testing.B) (*LSTM, *BatchTape, []Batch, []bool) {
	return benchSparseTape(b, 200, 4)
}

func benchSparseTape(b *testing.B, hidden, B int) (*LSTM, *BatchTape, []Batch, []bool) {
	b.Helper()
	l := NewLSTM(benchIn, hidden, rand.New(rand.NewSource(1)))
	rng := rand.New(rand.NewSource(5))
	return benchTape(b, l, B, func(tp *BatchTape) {
		for t := 0; t < benchSeqLen; t++ {
			for i := range tp.Xs[t].Data {
				tp.Xs[t].Data[i] = 0
				if rng.Float64() < 0.18 {
					tp.Xs[t].Data[i] = rng.NormFloat64()
				}
			}
		}
		tp.BuildSparse()
	})
}

func benchTape(b *testing.B, l *LSTM, B int, fill func(*BatchTape)) (*LSTM, *BatchTape, []Batch, []bool) {
	b.Helper()
	tp := &BatchTape{}
	tp.Reset(l, B, benchSeqLen)
	fill(tp)
	l.ForwardBatch(tp)
	dH := make([]Batch, benchSeqLen)
	touched := make([]bool, benchSeqLen)
	for t := 0; t < benchSeqLen; t++ {
		dH[t].Resize(B, l.Hidden)
		for i := range dH[t].Data {
			dH[t].Data[i] = 0.01 * float64(i%5)
		}
		touched[t] = true
	}
	return l, tp, dH, touched
}

// benchForwardBatch runs one batched training forward per op; steps/sec
// counts stream-steps so batch sizes compare directly.
func benchForwardBatch(b *testing.B, l *LSTM, tp *BatchTape) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.ForwardBatch(tp)
	}
	b.ReportMetric(float64(b.N)*float64(tp.B)*benchSeqLen/b.Elapsed().Seconds(), "steps/sec")
}

func BenchmarkLSTMForwardBatch1(b *testing.B) {
	l, tp, _, _ := benchTrainTape(b, 1)
	benchForwardBatch(b, l, tp)
}

func BenchmarkLSTMForwardBatch8(b *testing.B) {
	l, tp, _, _ := benchTrainTape(b, 8)
	benchForwardBatch(b, l, tp)
}

func BenchmarkLSTMForwardBatchFit(b *testing.B) {
	l, tp, _, _ := benchFitTape(b)
	benchForwardBatch(b, l, tp)
}

func BenchmarkLSTMForwardBatchH200(b *testing.B) {
	l, tp, _, _ := benchH200Tape(b)
	benchForwardBatch(b, l, tp)
}

// benchBackwardBatch runs one batched BPTT pass per op over the warmed
// tape; steps/sec counts stream-steps.
func benchBackwardBatch(b *testing.B, l *LSTM, tp *BatchTape, dH []Batch, touched []bool) {
	var s BatchGradScratch
	l.BackwardBatch(tp, dH, touched, &s) // warm the gradient scratch
	l.ZeroGrad()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.BackwardBatch(tp, dH, touched, &s)
	}
	b.StopTimer()
	l.ZeroGrad()
	b.ReportMetric(float64(b.N)*float64(tp.B)*benchSeqLen/b.Elapsed().Seconds(), "steps/sec")
}

func BenchmarkLSTMBackwardBatch1(b *testing.B) {
	l, tp, dH, touched := benchTrainTape(b, 1)
	benchBackwardBatch(b, l, tp, dH, touched)
}

func BenchmarkLSTMBackwardBatch8(b *testing.B) {
	l, tp, dH, touched := benchTrainTape(b, 8)
	benchBackwardBatch(b, l, tp, dH, touched)
}

func BenchmarkLSTMBackwardBatchFit(b *testing.B) {
	l, tp, dH, touched := benchFitTape(b)
	benchBackwardBatch(b, l, tp, dH, touched)
}

func BenchmarkLSTMBackwardBatchH200(b *testing.B) {
	l, tp, dH, touched := benchH200Tape(b)
	benchBackwardBatch(b, l, tp, dH, touched)
}
