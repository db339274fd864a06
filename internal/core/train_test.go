package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/xatu-go/xatu/internal/nn"
)

// gradSnapshot copies every gradient accumulator of m into one flat slice.
func gradSnapshot(m *Model) []float64 {
	var out []float64
	for _, p := range m.Params() {
		out = append(out, p.G.Data...)
	}
	return out
}

// weightSnapshot copies every weight of m into one flat slice.
func weightSnapshot(m *Model) []float64 {
	var out []float64
	for _, p := range m.Params() {
		out = append(out, p.W.Data...)
	}
	return out
}

// goldenTrainDigest is the SHA-256 over the run below — the saved bytes of
// three fitted configurations, their survival curves and input gradients —
// recorded at commit 3658e15, the last one where Survival and
// InputGradients ran a scalar forward/backward of their own beside the
// batched trainer. An equal digest says the offline bytes did not move
// when that second path was deleted.
const goldenTrainDigest = "efe92930bbb99b47fd95178c04f2225ec68f2e5a913f2144323d5b4c53c8c49f"

// goldenExample is a T-step example over 32 features: every row
// Gaussian when dense, three non-zeros per row otherwise (the density of
// live traffic counters, which takes the sparse input projection).
func goldenExample(rng *rand.Rand, T int, dense, attack bool, window int) Example {
	ex := Example{Attack: attack, AttackStep: window / 2}
	for t := 0; t < T; t++ {
		row := make([]float64, 32)
		for k := range row {
			if dense {
				row[k] = rng.NormFloat64()
			}
		}
		if !dense {
			for k := 0; k < 3; k++ {
				row[(k*11+t)%32] = rng.NormFloat64()
			}
		}
		ex.X = append(ex.X, row)
	}
	return ex
}

func TestTrainGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; other ports may fuse multiply-adds")
	}
	sum := sha256.New()
	putF := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		sum.Write(b[:])
	}
	vecs := func(x [][]float64) []nn.Vec {
		out := make([]nn.Vec, len(x))
		for i := range x {
			out[i] = x[i]
		}
		return out
	}
	base := tinyConfig()
	base.NumFeatures = 32
	noSurv, noMed := base, base
	noSurv.UseSurvival = false
	noMed.UseMed = false
	for _, cfg := range []Config{base, noSurv, noMed} {
		rng := rand.New(rand.NewSource(61))
		var examples []Example
		for i, T := range []int{48, 36, 48, 60, 36, 48, 60, 24, 48, 36} {
			// Lengths 48 and 24 are sparse, 36 and 60 dense, so both input
			// projections run; attack and benign alternate.
			dense := T == 36 || T == 60
			examples = append(examples, goldenExample(rng, T, dense, i%2 == 0, cfg.Window))
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Fit(examples, TrainOptions{Epochs: 2, BatchSize: 4, Workers: 2, Seed: 7}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		sum.Write(buf.Bytes())
		// Full-length sparse and dense sequences, and one shorter than the
		// window; input gradients at the first and last detection steps.
		for _, x := range [][][]float64{
			goldenExample(rng, 48, false, true, cfg.Window).X,
			goldenExample(rng, 60, true, true, cfg.Window).X,
			goldenExample(rng, cfg.Window-3, true, true, cfg.Window).X,
		} {
			s, err := m.Survival(vecs(x))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range s {
				putF(v)
			}
			for _, det := range []int{0, len(s) - 1} {
				g, err := m.InputGradients(x, det)
				if err != nil {
					t.Fatal(err)
				}
				for _, row := range g {
					for _, v := range row {
						putF(v)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != goldenTrainDigest {
		t.Fatalf("train digest %s, want %s", got, goldenTrainDigest)
	}
}

// checkBatchOneDigest runs a batch-1 trainChunk on each example in turn,
// each on a fresh model of cfg, and checks the SHA-256 over every loss
// followed by its gradient accumulators against want, recorded from the
// scalar Model.TrainExample at commit 3658e15, the last one that had it.
func checkBatchOneDigest(t *testing.T, cfg Config, examples []Example, want string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; other ports may fuse multiply-adds")
	}
	sum := sha256.New()
	put := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		sum.Write(b[:])
	}
	for i := range examples {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sc := &trainScratch{}
		l, err := m.trainChunk(examples, []int{i}, sc)
		if err != nil {
			t.Fatal(err)
		}
		if sc.tapes[brShort].Sparse() != (cfg.NumFeatures == 32) {
			t.Fatalf("features=%d: sparse input projection %v", cfg.NumFeatures, sc.tapes[brShort].Sparse())
		}
		put(l)
		for _, g := range gradSnapshot(m) {
			put(g)
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Fatalf("features=%d: batch-1 digest %s, TrainExample's %s", cfg.NumFeatures, got, want)
	}
}

func TestTrainChunkBatchOneBitIdenticalToTrainExample(t *testing.T) {
	// A batch-1 trainChunk must produce byte-for-byte the loss and gradients
	// the scalar TrainExample did: the batched trainer is a pure
	// performance change.
	cfg := tinyConfig()
	rng := rand.New(rand.NewSource(7))
	examples := []Example{synthExample(rng, 48, true, cfg.Window), synthExample(rng, 48, false, cfg.Window)}
	checkBatchOneDigest(t, cfg, examples, "50197c7ada8215cd226f3e95f6be44ed50fedacdb41749d3b1c81a1c0d456434")
}

func TestTrainChunkSparseBitIdenticalToTrainExample(t *testing.T) {
	// With realistically sparse feature rows (3/32 non-zero) the chunk
	// switches to the CSR input-projection kernels; loss and gradients must
	// still match the dense scalar TrainExample byte-for-byte.
	cfg := tinyConfig()
	cfg.NumFeatures = 32
	ex := goldenExample(rand.New(rand.NewSource(41)), 48, false, true, cfg.Window)
	checkBatchOneDigest(t, cfg, []Example{ex}, "f41479e18de3f75401cfd805105fd8c36efba32d79703124208d9d32acd72746")
}

func TestTrainChunkMatchesSumOfBatchOneChunks(t *testing.T) {
	// A multi-example chunk sums per-example gradients; the summation order
	// per weight element interleaves examples per timestep rather than
	// concatenating whole examples, so compare within float tolerance. Run
	// on dense rows and on 3/32-sparse rows, which take the CSR input
	// projection.
	dense := tinyConfig()
	sparse := tinyConfig()
	sparse.NumFeatures = 32
	for _, cfg := range []Config{dense, sparse} {
		rng := rand.New(rand.NewSource(11))
		m1, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m2 := m1.Replica()
		examples := synthSet(rng, 5, 48, cfg.Window)
		if cfg.NumFeatures == 32 {
			for i := range examples {
				examples[i] = goldenExample(rng, 48, false, i%2 == 0, cfg.Window)
			}
		}

		var want float64
		one := &trainScratch{}
		for i := range examples {
			l, err := m1.trainChunk(examples, []int{i}, one)
			if err != nil {
				t.Fatal(err)
			}
			want += l
		}
		sc := &trainScratch{}
		got, err := m2.trainChunk(examples, []int{0, 1, 2, 3, 4}, sc)
		if err != nil {
			t.Fatal(err)
		}
		if sc.tapes[brShort].Sparse() != (cfg.NumFeatures == 32) {
			t.Fatalf("features=%d: sparse input projection %v", cfg.NumFeatures, sc.tapes[brShort].Sparse())
		}
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("features=%d: chunk loss %v, batch-1 sum %v", cfg.NumFeatures, got, want)
		}
		g1, g2 := gradSnapshot(m1), gradSnapshot(m2)
		for i := range g1 {
			if math.Abs(g1[i]-g2[i]) > 1e-9*(1+math.Abs(g1[i])) {
				t.Fatalf("features=%d grad %d: batch-1 sum %v chunk %v", cfg.NumFeatures, i, g1[i], g2[i])
			}
		}
	}
}

func TestFitSameSeedByteIdenticalModels(t *testing.T) {
	// Two Fit runs with identical (examples, Seed, Workers, BatchSize) must
	// produce byte-identical saved models — the deterministic-reduction
	// contract, including with more workers than GOMAXPROCS.
	cfg := tinyConfig()
	examples := synthSet(rand.New(rand.NewSource(3)), 10, 48, cfg.Window)
	opts := TrainOptions{Epochs: 2, BatchSize: 4, Workers: 4, Seed: 42}

	var bufs [2]bytes.Buffer
	for r := 0; r < 2; r++ {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Fit(examples, opts); err != nil {
			t.Fatal(err)
		}
		if err := m.Save(&bufs[r]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("same-seed Fit runs produced different model bytes")
	}
}

func TestFitMixedSequenceLengths(t *testing.T) {
	// Examples of different lengths land in different lanes within one
	// batch; Fit must handle them and stay deterministic.
	cfg := tinyConfig()
	rng := rand.New(rand.NewSource(5))
	var examples []Example
	for i, T := range []int{48, 36, 48, 60, 36, 48, 60, 48} {
		examples = append(examples, synthExample(rng, T, i%2 == 0, cfg.Window))
	}
	opts := TrainOptions{Epochs: 2, BatchSize: 4, Workers: 2, Seed: 9}

	var bufs [2]bytes.Buffer
	for r := 0; r < 2; r++ {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Fit(examples, opts); err != nil {
			t.Fatal(err)
		}
		if err := m.Save(&bufs[r]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatal("mixed-length same-seed Fit runs produced different model bytes")
	}
}

func TestFitWorkersClampedToExamples(t *testing.T) {
	// Workers beyond the example count would only build replicas that can
	// never receive a chunk; the fitter must clamp instead.
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	examples := synthSet(rand.New(rand.NewSource(13)), 3, 36, cfg.Window)
	f := m.newFitter(examples, TrainOptions{Epochs: 1, BatchSize: 16, Workers: 8, Seed: 1})
	if f.workers != len(examples) {
		t.Fatalf("workers = %d, want clamp to %d examples", f.workers, len(examples))
	}
	if len(f.replicas) != f.workers {
		t.Fatalf("built %d replicas for %d workers", len(f.replicas), f.workers)
	}
	// And the clamped fitter still trains.
	if _, err := f.runEpoch(examples); err != nil {
		t.Fatal(err)
	}
}

func TestFitErrorLeavesWeightsUntouched(t *testing.T) {
	// A failing batch must not move the weights: no partial replica merge,
	// no optimizer step, and no stale gradients left in any replica.
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	examples := synthSet(rand.New(rand.NewSource(17)), 4, 36, cfg.Window)
	examples[2].X[10] = []float64{1, 2} // wrong feature width → trainChunk error

	before := weightSnapshot(m)
	_, fitErr := m.Fit(examples, TrainOptions{Epochs: 1, BatchSize: 8, Workers: 2, Seed: 1})
	if fitErr == nil {
		t.Fatal("expected Fit to fail on the malformed example")
	}
	after := weightSnapshot(m)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("weight %d moved across failed Fit: %v -> %v", i, before[i], after[i])
		}
	}
	g := gradSnapshot(m)
	for i, v := range g {
		if v != 0 {
			t.Fatalf("gradient %d left non-zero (%v) after failed Fit", i, v)
		}
	}
}

func TestFitterErrorZeroesReplicaGradients(t *testing.T) {
	// After a failed batch the replicas must be clean so a retry (or the
	// next Fit) does not inherit partial gradients.
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	examples := synthSet(rand.New(rand.NewSource(19)), 4, 36, cfg.Window)
	examples[3].X[0] = nil // empty row → width error in trainChunk

	f := m.newFitter(examples, TrainOptions{Epochs: 1, BatchSize: 8, Workers: 2, Seed: 1})
	if _, err := f.runEpoch(examples); err == nil {
		t.Fatal("expected runEpoch error")
	}
	for wi, r := range f.replicas {
		for i, v := range gradSnapshot(r) {
			if v != 0 {
				t.Fatalf("replica %d gradient %d left non-zero (%v)", wi, i, v)
			}
		}
	}
	if f.opt.StepCount() != 0 {
		t.Fatalf("optimizer stepped %d times on an all-failing epoch", f.opt.StepCount())
	}
}

func TestTrainChunkRejectsBadWidthMidSequence(t *testing.T) {
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := synthExample(rand.New(rand.NewSource(23)), 36, true, cfg.Window)
	ex.X[20] = []float64{1} // ragged interior row
	sc := &trainScratch{}
	if _, err := m.trainChunk([]Example{ex}, []int{0}, sc); err == nil {
		t.Fatal("expected width error for ragged row")
	}
	var empty Example
	if _, err := m.trainChunk([]Example{empty}, []int{0}, sc); err == nil {
		t.Fatal("expected error for empty sequence")
	}
}

func TestFitSteadyStateEpochZeroAlloc(t *testing.T) {
	// After the first epoch grows every buffer, subsequent epochs of the
	// single-worker batched trainer must not allocate at all.
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	examples := synthSet(rand.New(rand.NewSource(29)), 8, 48, cfg.Window)
	f := m.newFitter(examples, TrainOptions{Epochs: 1, BatchSize: 4, Workers: 1, Seed: 1})
	if _, err := f.runEpoch(examples); err != nil { // warm the grow-only scratch
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(3, func() {
		if _, err := f.runEpoch(examples); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("steady-state epoch allocated %v times, want 0", n)
	}
}

func TestFitBatchedStillLearns(t *testing.T) {
	// End-to-end sanity with two workers: the trained model separates attack
	// from benign survival curves.
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	examples := synthSet(rng, 24, 48, cfg.Window)
	if _, err := m.Fit(examples, TrainOptions{Epochs: 12, BatchSize: 8, Workers: 2, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	atk := synthExample(rng, 48, true, cfg.Window)
	ben := synthExample(rng, 48, false, cfg.Window)
	sa, err := m.Survival(asVecs(atk.X))
	if err != nil {
		t.Fatal(err)
	}
	sb, err := m.Survival(asVecs(ben.X))
	if err != nil {
		t.Fatal(err)
	}
	if sa[len(sa)-1] >= sb[len(sb)-1] {
		t.Fatalf("attack survival %v not below benign %v", sa[len(sa)-1], sb[len(sb)-1])
	}
}
