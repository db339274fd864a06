package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"github.com/xatu-go/xatu/internal/features"
)

// benchModel mirrors the deployed detector shape: 273 features, the
// default hidden width and pooling schedule.
func benchModel(b *testing.B) *Model {
	b.Helper()
	cfg := DefaultConfig(features.NumFeatures)
	cfg.Hidden = 16
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchInput() []float64 {
	x := make([]float64, features.NumFeatures)
	for i := 0; i < 8; i++ {
		x[i*13] = 1.5
	}
	return x
}

// BenchmarkStreamPush is the float64 oracle's step: three branches + head +
// hazard window, zero allocations.
func BenchmarkStreamPush(b *testing.B) {
	s := NewStream(benchModel(b))
	x := benchInput()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(x)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// BenchmarkStreamPushF32 is a lone serving stream: a batch of one on its
// lane.
func BenchmarkStreamPushF32(b *testing.B) {
	s := newLane(b, benchModel(b)).NewStream()
	x := benchInput()
	s.Push(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(x)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/sec")
}

// benchBatchRunnerPush32 advances B streams of one lane per op; steps/sec
// counts stream-steps so it compares directly with BenchmarkStreamPushF32.
func benchBatchRunnerPush32(b *testing.B, B int) {
	m := benchModel(b)
	r := newLane(b, m)
	streams := make([]*Stream, B)
	xs := make([][]float64, B)
	for i := range streams {
		streams[i] = r.NewStream()
		xs[i] = benchInput()
	}
	out := make([]float64, B)
	for i := 0; i < m.Cfg.PoolLong; i++ {
		r.Push(streams, xs, out) // warm every branch's packing buffers
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Push(streams, xs, out)
	}
	b.ReportMetric(float64(b.N)*float64(B)/b.Elapsed().Seconds(), "steps/sec")
}

func BenchmarkBatchRunnerPush8F32(b *testing.B)  { benchBatchRunnerPush32(b, 8) }
func BenchmarkBatchRunnerPush64F32(b *testing.B) { benchBatchRunnerPush32(b, 64) }

// BenchmarkLanePushWide is the lane at the wide_quiet benchmark workload's
// shape: 4096 customers of six channels on one Hidden-64 lane, each
// customer's channels pushed together on one feature vector with 18 % of
// its 273 features non-zero, as a Monitor pushes them. One op is one
// customer-step, visiting the customers in turn so their state comes from
// memory, not cache. A sub-benchmark pushes that many customers per Push,
// as an engine shard steps a run of its mailbox (maxRun in
// internal/engine). It reports the time per customer-step and the heap
// the streams and their input records hold per stream.
func BenchmarkLanePushWide(b *testing.B) {
	for _, k := range []int{1, 2, 4, 16, 32, 64, 256} {
		b.Run(fmt.Sprintf("customers=%d", k), func(b *testing.B) { benchLanePushWide(b, k) })
	}
}

func benchLanePushWide(b *testing.B, perPush int) {
	const customers, channels, density = 4096, 6, 0.18
	cfg := DefaultConfig(features.NumFeatures)
	cfg.Hidden = 64
	m, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	r := newLane(b, m)
	rng := rand.New(rand.NewSource(1))
	inputs := make([][]float64, 64)
	for i := range inputs {
		inputs[i] = make([]float64, cfg.NumFeatures)
		for j := range inputs[i] {
			if rng.Float64() < density {
				inputs[i][j] = rng.NormFloat64()
			}
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	streams := make([]*Stream, customers*channels)
	for i := range streams {
		streams[i] = r.NewStream()
	}
	rows := make([]*Stream, 0, perPush*channels)
	xs := make([][]float64, 0, perPush*channels)
	out := make([]float64, perPush*channels)
	// push steps customers c, c+1, … c+perPush-1 (mod customers) in one
	// Push, each on its own input.
	push := func(c, step int) {
		rows, xs = rows[:0], xs[:0]
		for j := 0; j < perPush; j++ {
			cj := (c + j) % customers
			x := inputs[(cj+step)%len(inputs)]
			for k := 0; k < channels; k++ {
				rows = append(rows, streams[cj*channels+k])
				xs = append(xs, x)
			}
		}
		r.Push(rows, xs, out[:len(rows)])
	}
	for c := 0; c < customers; c += perPush { // every customer's first step makes its input record
		push(c, 0)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for ; n < b.N; n += perPush {
		push(n%customers, 1+n/customers)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e6/float64(n), "us/customer-step")
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/(customers*channels), "heap-B/stream")
	runtime.KeepAlive(streams)
}

// benchTrainSet builds n uniform-length training series at the deployed
// feature width: 2 pooled-long steps of lookback (120 base steps) with the
// default detection window. Rows follow the benchInput convention — 8 of
// 273 hierarchical counters active — which drives the sparse
// input-projection path, as live traffic features do. dense=true fills
// every feature instead, pinning the trainer to the dense kernels.
func benchTrainSet(m *Model, n int, dense bool) []Example {
	const T = 120
	out := make([]Example, n)
	for i := range out {
		x := make([][]float64, T)
		for t := range x {
			row := make([]float64, m.Cfg.NumFeatures)
			if dense {
				for j := range row {
					row[j] = 0.1 + float64(j%7)
				}
			} else {
				for j := 0; j < 8; j++ {
					row[j*13] = 1.5
				}
			}
			if i%2 == 0 && t > T-20 {
				row[0] = 3 // volumetric ramp on attack examples
			}
			x[t] = row
		}
		out[i] = Example{X: x, Attack: i%2 == 0, AttackStep: m.Cfg.Window / 2}
	}
	return out
}

// benchFitBatched drives the batched trainer epoch loop directly (one op =
// one epoch over 32 examples) so the steady state is visible to
// ReportAllocs: after the first epoch grows the scratch, every epoch runs
// allocation-free at workers=1.
func benchFitBatched(b *testing.B, workers int, dense bool) {
	m := benchModel(b)
	examples := benchTrainSet(m, 32, dense)
	f := m.newFitter(examples, TrainOptions{Epochs: 1, BatchSize: 8, Workers: workers, Seed: 1})
	if _, err := f.runEpoch(examples); err != nil { // warm the grow-only scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.runEpoch(examples); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(len(examples))/b.Elapsed().Seconds(), "examples/sec")
}

func BenchmarkFitBatched(b *testing.B)         { benchFitBatched(b, 1, false) }
func BenchmarkFitBatchedWorkers2(b *testing.B) { benchFitBatched(b, 2, false) }

// BenchmarkFitBatchedDense forces fully dense feature rows so the density
// switch keeps the register-blocked dense kernels: the honest lower bound
// of the batched speedup when no input sparsity is available.
func BenchmarkFitBatchedDense(b *testing.B) { benchFitBatched(b, 1, true) }
