package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/xatu-go/xatu/internal/nn"
	"github.com/xatu-go/xatu/internal/survival"
)

// tinyConfig returns a model small enough for fast tests.
func tinyConfig() Config {
	cfg := DefaultConfig(4)
	cfg.Hidden = 6
	cfg.PoolShort, cfg.PoolMed, cfg.PoolLong = 1, 4, 12
	cfg.Window = 8
	cfg.LearningRate = 0.02
	return cfg
}

// synthExample builds a T×4 sequence. Attack examples carry a rising signal
// in feature 0 starting a few steps before the labeled attack step; feature
// 1 is weak "auxiliary" lead; 2–3 are noise.
func synthExample(rng *rand.Rand, T int, attack bool, window int) Example {
	x := make([][]float64, T)
	attackStep := window / 2
	onsetBase := T - window + attackStep
	for t := range x {
		row := []float64{0, 0, rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1}
		if attack {
			if t >= onsetBase-3 {
				row[0] = 1 + 0.2*rng.NormFloat64() // volumetric ramp
			}
			if t >= onsetBase-16 {
				row[1] = 0.5 + 0.2*rng.NormFloat64() // early auxiliary lead
			}
		}
		x[t] = row
	}
	return Example{X: x, Attack: attack, AttackStep: attackStep}
}

func synthSet(rng *rand.Rand, n, T, window int) []Example {
	out := make([]Example, n)
	for i := range out {
		out[i] = synthExample(rng, T, i%2 == 0, window)
	}
	return out
}

// asVecs views a [][]float64 as the []nn.Vec Survival takes.
func asVecs(x [][]float64) []nn.Vec {
	out := make([]nn.Vec, len(x))
	for i := range x {
		out[i] = x[i]
	}
	return out
}

// hazards runs the forward pass on x as a batch of one and returns λ over
// the detection window.
func hazards(t *testing.T, m *Model, x [][]float64) []float64 {
	t.Helper()
	sc, err := m.forwardOne(x)
	if err != nil {
		t.Fatal(err)
	}
	return sc.haz[:sc.w]
}

func TestConfigValidate(t *testing.T) {
	if err := tinyConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumFeatures = 0 },
		func(c *Config) { c.Hidden = 0 },
		func(c *Config) { c.PoolMed = 0 },
		func(c *Config) { c.Window = 0 },
		func(c *Config) { c.UseShort, c.UseMed, c.UseLong = false, false, false },
		func(c *Config) { c.LearningRate = 0 },
	}
	for i, mutate := range bad {
		c := tinyConfig()
		mutate(&c)
		if _, err := New(c); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestForwardShapes(t *testing.T) {
	m, err := New(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	ex := synthExample(rand.New(rand.NewSource(1)), 48, true, 8)
	haz := hazards(t, m, ex.X)
	if len(haz) != 8 {
		t.Fatalf("hazards = %d, want Window=8", len(haz))
	}
	for _, h := range haz {
		if h < 0 || math.IsNaN(h) {
			t.Fatalf("hazard %v invalid", h)
		}
	}
	s, err := m.Survival(asVecs(ex.X))
	if err != nil {
		t.Fatal(err)
	}
	prev := 1.0
	for _, v := range s {
		if v <= 0 || v > 1 || v > prev+1e-12 {
			t.Fatalf("survival not monotone in (0,1]: %v", s)
		}
		prev = v
	}
}

func TestForwardErrors(t *testing.T) {
	m, _ := New(tinyConfig())
	if _, err := m.Survival(nil); err == nil {
		t.Fatal("empty sequence must error")
	}
	if _, err := m.InputGradients(nil, 0); err == nil {
		t.Fatal("empty sequence must error")
	}
	if _, err := m.Survival([]nn.Vec{{1, 2}}); err == nil {
		t.Fatal("wrong width must error")
	}
	if _, err := m.InputGradients([][]float64{{1, 2}}, 0); err == nil {
		t.Fatal("wrong width must error")
	}
}

func TestRaggedInputErrors(t *testing.T) {
	// A short row in the middle of a sequence must be an error, not a
	// panic, whichever branch pools it: all three, or only a pooled one.
	medOnly := tinyConfig()
	medOnly.UseShort, medOnly.UseLong = false, false
	for _, cfg := range []Config{tinyConfig(), medOnly} {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ex := synthExample(rand.New(rand.NewSource(2)), 24, true, cfg.Window)
		ex.X[13] = ex.X[13][:2]
		if _, err := m.Survival(asVecs(ex.X)); err == nil {
			t.Fatalf("short=%v: Survival accepted a ragged row", cfg.UseShort)
		}
		if _, err := m.InputGradients(ex.X, 0); err == nil {
			t.Fatalf("short=%v: InputGradients accepted a ragged row", cfg.UseShort)
		}
	}
}

func TestForwardShortSequenceClampsWindow(t *testing.T) {
	m, _ := New(tinyConfig())
	xs := make([]nn.Vec, 3)
	for i := range xs {
		xs[i] = nn.NewVec(4)
	}
	s, err := m.Survival(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 3 || m.WindowLen(len(xs)) != 3 {
		t.Fatalf("window must clamp to sequence length, got %d (WindowLen %d)", len(s), m.WindowLen(len(xs)))
	}
}

func TestBranchAlignmentNoFutureLeakage(t *testing.T) {
	// The state a detection step reads from a pooled branch must not
	// contain inputs from after that step: inject a huge spike *after*
	// detection step 0 and check its hazard is unchanged.
	cfg := tinyConfig()
	m, _ := New(cfg)
	T := 48
	mk := func(spike bool) [][]float64 {
		xs := make([][]float64, T)
		for i := range xs {
			xs[i] = make([]float64, 4)
			xs[i][0] = 0.1
		}
		if spike {
			// Detection step 0 is base step T-8; poison everything after it.
			for i := T - 7; i < T; i++ {
				xs[i][0] = 100
			}
		}
		return xs
	}
	h1, h2 := hazards(t, m, mk(false)), hazards(t, m, mk(true))
	if h1[0] != h2[0] {
		t.Fatalf("future inputs leaked into detection step 0: %v vs %v", h1[0], h2[0])
	}
}

func TestFitLearnsSyntheticTask(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := tinyConfig()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	train := synthSet(rng, 40, 48, cfg.Window)
	first := math.NaN()
	last, err := m.Fit(train, TrainOptions{
		Epochs: 30, BatchSize: 8, Seed: 3,
		Progress: func(epoch int, l float64) {
			if epoch == 0 {
				first = l
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !(last < first*0.7) {
		t.Fatalf("loss did not drop: first %v last %v", first, last)
	}
	// Survival on a fresh attack example must dip below survival on a fresh
	// benign example.
	atk := synthExample(rng, 48, true, cfg.Window)
	ben := synthExample(rng, 48, false, cfg.Window)
	sa, _ := m.Survival(asVecs(atk.X))
	sb, _ := m.Survival(asVecs(ben.X))
	if !(sa[len(sa)-1] < sb[len(sb)-1]) {
		t.Fatalf("attack survival %v not below benign %v", sa[len(sa)-1], sb[len(sb)-1])
	}
	// The model should detect at or before the labeled step once thresholded
	// between the two series' finals.
	th := (sa[len(sa)-1] + sb[len(sb)-1]) / 2
	det := survival.DetectStep(sa, th)
	if det == -1 || det > atk.AttackStep+2 {
		t.Fatalf("detect step %d vs label %d", det, atk.AttackStep)
	}
}

func TestFitParallelMatchesSerialDirection(t *testing.T) {
	// Parallel training is not bit-identical (FP summation order), but both
	// must learn. Run 4 workers and verify loss drops.
	rng := rand.New(rand.NewSource(9))
	cfg := tinyConfig()
	m, _ := New(cfg)
	train := synthSet(rng, 24, 48, cfg.Window)
	first := math.NaN()
	last, err := m.Fit(train, TrainOptions{Epochs: 15, BatchSize: 8, Workers: 4, Seed: 1,
		Progress: func(e int, l float64) {
			if e == 0 {
				first = l
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !(last < first) {
		t.Fatalf("parallel fit did not reduce loss: %v -> %v", first, last)
	}
}

func TestFitEmptyExamples(t *testing.T) {
	m, _ := New(tinyConfig())
	if _, err := m.Fit(nil, TrainOptions{}); err == nil {
		t.Fatal("empty training set must error")
	}
}

func TestBCEVariantTrains(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := tinyConfig()
	cfg.UseSurvival = false
	m, _ := New(cfg)
	train := synthSet(rng, 20, 48, cfg.Window)
	first := math.NaN()
	last, err := m.Fit(train, TrainOptions{Epochs: 10, BatchSize: 5, Seed: 2,
		Progress: func(e int, l float64) {
			if e == 0 {
				first = l
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if !(last < first) {
		t.Fatalf("BCE fit did not reduce loss: %v -> %v", first, last)
	}
}

func TestSingleTimescaleVariants(t *testing.T) {
	for _, variant := range []struct {
		name    string
		s, m, l bool
	}{
		{"short-only", true, false, false},
		{"med-only", false, true, false},
		{"long-only", false, false, true},
		{"short+med", true, true, false},
	} {
		cfg := tinyConfig()
		cfg.UseShort, cfg.UseMed, cfg.UseLong = variant.s, variant.m, variant.l
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		ex := synthExample(rand.New(rand.NewSource(1)), 48, true, cfg.Window)
		if _, err := m.trainChunk([]Example{ex}, []int{0}, &trainScratch{}); err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
		if _, err := m.InputGradients(ex.X, ex.AttackStep); err != nil {
			t.Fatalf("%s: %v", variant.name, err)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cfg := tinyConfig()
	m, _ := New(cfg)
	train := synthSet(rng, 8, 48, cfg.Window)
	if _, err := m.Fit(train, TrainOptions{Epochs: 2, BatchSize: 4, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ex := synthExample(rng, 48, true, cfg.Window)
	s1, _ := m.Survival(asVecs(ex.X))
	s2, _ := m2.Survival(asVecs(ex.X))
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("loaded model differs at step %d: %v vs %v", i, s1[i], s2[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("garbage must fail to load")
	}
	if _, err := Load(bytes.NewReader([]byte("999999999\n"))); err == nil {
		t.Fatal("absurd header must fail")
	}
}

// oversizedHeader is a complete model file header whose configuration
// implies a few billion parameters: a couple of hundred bytes that used
// to reach New, and so a multi-gigabyte allocation, before any weight was
// read.
func oversizedHeader() []byte {
	cfg := tinyConfig()
	cfg.Hidden = 4000000
	var buf bytes.Buffer
	hdr, _ := json.Marshal(cfg)
	fmt.Fprintf(&buf, "%d\n", len(hdr))
	buf.Write(hdr)
	buf.WriteString("XNN1")
	return buf.Bytes()
}

func TestLoadRejectsOversizedModelBeforeAllocating(t *testing.T) {
	data := oversizedHeader()
	_, err := Load(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "implausible model size") {
		t.Fatalf("a %d-byte file claiming Hidden 4000000: err %v", len(data), err)
	}
}

func TestParamCountMatchesModel(t *testing.T) {
	for _, cfg := range []Config{tinyConfig(), DefaultConfig(273)} {
		for _, use := range [][3]bool{{true, true, true}, {true, false, true}, {false, false, true}} {
			cfg.UseShort, cfg.UseMed, cfg.UseLong = use[0], use[1], use[2]
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var n int64
			for _, p := range m.Params() {
				n += int64(len(p.W.Data))
			}
			if got := cfg.paramCount(); got != n {
				t.Fatalf("%+v: paramCount %d, model holds %d", cfg, got, n)
			}
		}
	}
	cfg := DefaultConfig(273)
	cfg.Hidden = 200
	if p := cfg.paramCount(); p >= 1<<24 {
		t.Fatalf("the paper's Hidden 200 model (%d parameters) must load", p)
	}
}

func TestTrainGradientMatchesNumeric(t *testing.T) {
	// End-to-end gradient check through pooling, LSTMs, head and the SAFE
	// loss: analytic dL/dw vs central differences for sampled weights.
	cfg := tinyConfig()
	cfg.Window = 4
	m, _ := New(cfg)
	ex := synthExample(rand.New(rand.NewSource(3)), 24, true, cfg.Window)

	lossOf := func() float64 {
		haz := hazards(t, m, ex.X)
		return m.lossGradInto(haz, &ex, make([]float64, len(haz)))
	}
	m.ZeroGrad()
	if _, err := m.trainChunk([]Example{ex}, []int{0}, &trainScratch{}); err != nil {
		t.Fatal(err)
	}
	params := m.Params()
	const h = 1e-6
	for _, p := range params {
		stride := len(p.W.Data)/4 + 1
		for i := 0; i < len(p.W.Data); i += stride {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + h
			lp := lossOf()
			p.W.Data[i] = orig - h
			lm := lossOf()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * h)
			got := p.G.Data[i]
			if math.Abs(num-got) > 1e-4*(1+math.Abs(num)+math.Abs(got)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, i, got, num)
			}
		}
	}
}

func TestForwardFiniteHazardsProperty(t *testing.T) {
	// Random small configurations over random inputs must always yield
	// finite non-negative hazards and monotone survival.
	f := func(seed int64, hRaw, wRaw, tRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig(5)
		cfg.Hidden = int(hRaw)%8 + 2
		cfg.Window = int(wRaw)%6 + 2
		cfg.PoolShort = 1
		cfg.PoolMed = rng.Intn(4) + 2
		cfg.PoolLong = cfg.PoolMed * (rng.Intn(3) + 2)
		cfg.Seed = seed
		m, err := New(cfg)
		if err != nil {
			return false
		}
		T := int(tRaw)%40 + cfg.Window
		xs := make([]nn.Vec, T)
		for i := range xs {
			xs[i] = nn.NewVec(5)
			for j := range xs[i] {
				xs[i][j] = rng.NormFloat64() * 3
			}
		}
		s, err := m.Survival(xs)
		if err != nil {
			return false
		}
		prev := 1.0
		for _, v := range s {
			if math.IsNaN(v) || v <= 0 || v > prev+1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
