// Package core implements Xatu's machine learning (§4): the multi-timescale
// LSTM over the 273 traffic features, the survival-analysis training
// objective, gradient attribution, and the streaming online detector. Every
// design knob the paper ablates (§6.3, Appendix H) is a Config field:
// individual timescales, the survival loss vs a classification loss, hidden
// width, pooling granularities, and lookback length (via the input series).
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"

	"github.com/xatu-go/xatu/internal/nn"
	"github.com/xatu-go/xatu/internal/survival"
)

// Config parameterizes a Model. The paper's prototype uses Hidden=200,
// pooling at (1, 10, 60) minutes, a detection window of N=30 and the SAFE
// survival loss; scaled-down experiments shrink Hidden and the input
// window, not the structure.
type Config struct {
	NumFeatures int `json:"num_features"`
	Hidden      int `json:"hidden"`
	// PoolShort/Med/Long are the aggregation factors (in base steps) for
	// TSShort, TSMedium and TSLong.
	PoolShort int `json:"pool_short"`
	PoolMed   int `json:"pool_med"`
	PoolLong  int `json:"pool_long"`
	// Window is the detection window N: hazards are emitted for the last N
	// pooled-short steps of the input sequence.
	Window int `json:"window"`
	// UseShort/Med/Long toggle the three LSTMs (Fig 18(b) ablation).
	UseShort bool `json:"use_short"`
	UseMed   bool `json:"use_med"`
	UseLong  bool `json:"use_long"`
	// UseSurvival selects the SAFE loss; false trains with per-step binary
	// cross-entropy (the classification baseline of Fig 18(d)).
	UseSurvival bool  `json:"use_survival"`
	Seed        int64 `json:"seed"`
	// LearningRate for Adam (paper: 1e-4; scaled runs use larger).
	LearningRate float64 `json:"learning_rate"`
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig(numFeatures int) Config {
	return Config{
		NumFeatures: numFeatures,
		Hidden:      16,
		PoolShort:   1, PoolMed: 10, PoolLong: 60,
		Window:   30,
		UseShort: true, UseMed: true, UseLong: true,
		UseSurvival:  true,
		Seed:         1,
		LearningRate: 3e-3,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.NumFeatures <= 0:
		return errors.New("core: NumFeatures must be positive")
	case c.Hidden <= 0:
		return errors.New("core: Hidden must be positive")
	case c.PoolShort <= 0 || c.PoolMed <= 0 || c.PoolLong <= 0:
		return errors.New("core: pooling factors must be positive")
	case c.Window <= 0:
		return errors.New("core: Window must be positive")
	case !c.UseShort && !c.UseMed && !c.UseLong:
		return errors.New("core: at least one timescale must be enabled")
	case c.LearningRate <= 0:
		return errors.New("core: LearningRate must be positive")
	}
	return nil
}

// paramCount is the number of weights a model with this configuration
// holds, or math.MaxInt64 when a width alone passes 1<<24 (the count
// would then pass 1<<26 and could overflow). It assumes a valid
// configuration.
func (c Config) paramCount() int64 {
	if c.NumFeatures > 1<<24 || c.Hidden > 1<<24 {
		return math.MaxInt64
	}
	in, h := int64(c.NumFeatures), int64(c.Hidden)
	branches := int64(0)
	for _, use := range []bool{c.UseShort, c.UseMed, c.UseLong} {
		if use {
			branches++
		}
	}
	lstm := 4*h*in + 4*h*h + 4*h // Wx, Wh, B
	return branches*lstm + branches*h + 1
}

// branch indices.
const (
	brShort = iota
	brMed
	brLong
	numBranches
)

// Model is the multi-timescale LSTM with a dense combining head emitting
// instantaneous attack probabilities λ_t through a softplus link.
type Model struct {
	Cfg   Config
	lstms [numBranches]*nn.LSTM // nil when the branch is disabled
	head  *nn.Dense
	// q32 caches the quantized float32 serving form (precision.go); Fit
	// invalidates it when the weights change.
	q32mu sync.Mutex
	q32   *Quantized32
}

// New builds a model with freshly initialized weights.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg}
	mk := func(use bool) *nn.LSTM {
		if !use {
			return nil
		}
		return nn.NewLSTM(cfg.NumFeatures, cfg.Hidden, rng)
	}
	m.lstms[brShort] = mk(cfg.UseShort)
	m.lstms[brMed] = mk(cfg.UseMed)
	m.lstms[brLong] = mk(cfg.UseLong)
	m.head = nn.NewDense(cfg.Hidden*m.activeBranches(), 1, rng)
	return m, nil
}

// branchMask has bit b set when branch b is enabled.
func (m *Model) branchMask() uint8 {
	var mask uint8
	for b, l := range m.lstms {
		if l != nil {
			mask |= 1 << b
		}
	}
	return mask
}

func (m *Model) activeBranches() int {
	n := 0
	for _, l := range m.lstms {
		if l != nil {
			n++
		}
	}
	return n
}

// Params returns all trainable parameters.
func (m *Model) Params() []nn.Param {
	var out []nn.Param
	names := [numBranches]string{"short", "med", "long"}
	for b, l := range m.lstms {
		if l == nil {
			continue
		}
		for _, p := range l.Params() {
			p.Name = names[b] + "." + p.Name
			out = append(out, p)
		}
	}
	out = append(out, m.head.Params()...)
	return out
}

// ZeroGrad clears all gradient accumulators.
func (m *Model) ZeroGrad() {
	for _, l := range m.lstms {
		if l != nil {
			l.ZeroGrad()
		}
	}
	m.head.ZeroGrad()
}

// Replica returns a model sharing m's weights with independent gradient
// buffers, for parallel gradient computation.
func (m *Model) Replica() *Model {
	r := &Model{Cfg: m.Cfg, head: m.head.ShareWeights()}
	for b, l := range m.lstms {
		if l != nil {
			r.lstms[b] = l.ShareWeights()
		}
	}
	return r
}

// MergeGradsInto adds the replica's gradients into dst and zeroes them.
func (m *Model) MergeGradsInto(dst *Model) {
	for b, l := range m.lstms {
		if l != nil {
			l.MergeGradsInto(dst.lstms[b])
		}
	}
	m.head.MergeGradsInto(dst.head)
}

// poolFactor returns the pooling factor for a branch.
func (m *Model) poolFactor(b int) int {
	switch b {
	case brShort:
		return m.Cfg.PoolShort
	case brMed:
		return m.Cfg.PoolMed
	default:
		return m.Cfg.PoolLong
	}
}

// branchIdx maps a pooled-short detection step t to the index of the last
// branch-b LSTM state that contains no input from after t — i.e. the last
// *completed* pooling block. Returns -1 when no block has completed yet
// (the branch contributes zeros, exactly like the warming-up Stream).
func (m *Model) branchIdx(b, t, tapeLen int) int {
	// Last base-resolution step covered by pooled-short step t.
	bt := t*m.Cfg.PoolShort + m.Cfg.PoolShort - 1
	idx := (bt+1)/m.poolFactor(b) - 1
	if idx >= tapeLen {
		idx = tapeLen - 1
	}
	return idx
}

// WindowLen returns the number of detection steps a base-resolution
// sequence of T steps yields: the last Window pooled-short steps, or all of
// them when the sequence is shorter.
func (m *Model) WindowLen(T int) int {
	nShort := (T + m.Cfg.PoolShort - 1) / m.Cfg.PoolShort
	return min(m.Cfg.Window, nShort)
}

// Survival returns the cumulative no-attack probabilities S_t over the
// detection window for the given input sequence: the training forward
// pass on a batch of one.
func (m *Model) Survival(xs []nn.Vec) ([]float64, error) {
	x := make([][]float64, len(xs))
	for i, v := range xs {
		x[i] = v
	}
	sc, err := m.forwardOne(x)
	if err != nil {
		return nil, err
	}
	return survival.Survival(sc.haz[:sc.w]), nil
}

// Example is one training series: base-resolution (already normalized)
// features plus its label. AttackStep indexes the ground-truth detection
// within the detection window [0, Window); it is ignored for non-attack
// examples.
type Example struct {
	X          [][]float64
	Attack     bool
	AttackStep int
}

// lossGradInto computes the loss for the example and writes the
// per-detection-step hazard gradients dL/dλ_t (zero past the label time
// for the SAFE loss) into the caller-owned dHaz (len == len(hazards),
// fully overwritten), allocating nothing on the SAFE path.
func (m *Model) lossGradInto(hazards []float64, ex *Example, dHaz []float64) float64 {
	n := len(hazards)
	dHaz = dHaz[:n]
	for t := range dHaz {
		dHaz[t] = 0
	}
	tEnd := n - 1
	if ex.Attack {
		tEnd = ex.AttackStep
		if tEnd >= n {
			tEnd = n - 1
		}
		if tEnd < 0 {
			tEnd = 0
		}
	}
	if m.Cfg.UseSurvival {
		loss, g := survival.Loss(hazards[:tEnd+1], ex.Attack)
		for t := 0; t <= tEnd; t++ {
			dHaz[t] = g
		}
		return loss
	}
	attackStep := -1
	if ex.Attack {
		attackStep = tEnd
	}
	return survival.BCELossInto(hazards, attackStep, dHaz)
}

// The forward and backward passes, TrainOptions and Fit live in train.go.

// Save writes the model (config + weights) to w.
func (m *Model) Save(w io.Writer) error {
	hdr, err := json.Marshal(m.Cfg)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%d\n", len(hdr)); err != nil {
		return err
	}
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	return nn.WriteParams(w, m.Params())
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var n int
	if _, err := fmt.Fscanf(r, "%d\n", &n); err != nil {
		return nil, fmt.Errorf("core: reading header length: %w", err)
	}
	if n <= 0 || n > 1<<16 {
		return nil, fmt.Errorf("core: implausible header length %d", n)
	}
	hdr := make([]byte, n)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, err
	}
	var cfg Config
	if err := json.Unmarshal(hdr, &cfg); err != nil {
		return nil, fmt.Errorf("core: decoding config: %w", err)
	}
	// New allocates every weight the header implies before a single one is
	// read, so a few hundred bytes could ask for any amount of memory.
	// Bound it: the paper's Hidden 200 model has ≈1.1 M parameters.
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if p := cfg.paramCount(); p > 1<<24 {
		return nil, fmt.Errorf("core: implausible model size: %d parameters", p)
	}
	m, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if err := nn.ReadParams(r, m.Params()); err != nil {
		return nil, err
	}
	return m, nil
}
