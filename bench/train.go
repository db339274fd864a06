package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/eval"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/nn"
)

// train_fit: the write side. core.Model.Fit, single worker, on examples
// drawn from the isp_paced world (real extraction sparsity), cut to mixed
// lengths so the trainer's lane bucketing is exercised, run twice from the
// same seed: the second fit must reproduce the first byte for byte.

const (
	trainHidden   = 64
	trainExamples = 48
	// trainEpochsPer10s is the fixed work of one fit per 10 s of run length.
	// It was sized once on the seed commit so two fits take ≈10 s, and is not
	// adapted at run time.
	trainEpochsPer10s = 18
)

type trainEnv struct {
	cfg      core.Config
	examples []core.Example
	rows     int // Σ sequence lengths
	density  float64
}

func setupTrain(opt options) (*trainEnv, error) {
	cfg := pacedConfig(opt.smoke)
	p, err := eval.New(cfg)
	if err != nil {
		return nil, err
	}
	// Labelled windows from the whole horizon: a 200-customer world spreads
	// its attacks thin, and the fit wants every example it can get.
	set, err := p.BuildExamples(p.Extractor(nil, nil), 0, cfg.World.Steps(), opt.seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opt.seed))
	// A fixed number of examples, seeded in which and in what order: the
	// work of an epoch must not depend on the seed.
	all := set.Combined(rng)
	e := &trainEnv{cfg: cfg.Model}
	for i := 0; i < trainExamples; i++ {
		e.examples = append(e.examples, all[i%len(all)])
	}
	e.cfg.Seed = opt.seed
	e.cfg.NumFeatures = features.NumFeatures
	e.cfg.Hidden = trainHidden
	if opt.smoke {
		e.cfg.Hidden = 8
	}
	var nonzero, cells int
	for i := range e.examples {
		ex := &e.examples[i]
		// Mixed lengths: keep the last 1/2, 3/4 or all of the lookback in
		// equal shares (the label sits at the end of the window).
		keep := len(ex.X) * (2 + i%3) / 4
		ex.X = ex.X[len(ex.X)-keep:]
		e.rows += keep
		for _, row := range ex.X {
			cells += len(row)
			for _, v := range row {
				if v != 0 {
					nonzero++
				}
			}
		}
	}
	e.density = float64(nonzero) / float64(max(cells, 1))
	return e, nil
}

// fitResult is one Model.Fit call, timed per epoch.
type fitResult struct {
	model   []byte
	losses  []float64
	epochS  []float64
	mallocs []uint64 // allocations during each epoch
	wall    float64  // Fit call to saved model
}

func (e *trainEnv) fit(epochs int, seed int64) (fitResult, error) {
	var r fitResult
	m, err := core.New(e.cfg)
	if err != nil {
		return r, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	last, lastMallocs := time.Now(), ms.Mallocs
	start := last
	_, err = m.Fit(e.examples, core.TrainOptions{
		Epochs: epochs, BatchSize: 12, Workers: 1, Seed: seed,
		Progress: func(_ int, loss float64) {
			now := time.Now()
			runtime.ReadMemStats(&ms)
			r.losses = append(r.losses, loss)
			r.epochS = append(r.epochS, now.Sub(last).Seconds())
			r.mallocs = append(r.mallocs, ms.Mallocs-lastMallocs)
			last, lastMallocs = now, ms.Mallocs
		},
	})
	if err != nil {
		return r, err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return r, err
	}
	r.model = buf.Bytes()
	r.wall = time.Since(start).Seconds()
	return r, nil
}

func runTrain(opt options, rep *report) error {
	t0 := time.Now()
	env, err := setupTrain(opt)
	if err != nil {
		return err
	}
	rep.set("setup_s", time.Since(t0).Seconds())
	epochs := max(2, int(float64(trainEpochsPer10s)*opt.duration.Seconds()/10+0.5))
	runtime.GC()
	u0 := snapshot()
	a, err := env.fit(epochs, opt.seed)
	if err != nil {
		return err
	}
	b, err := env.fit(epochs, opt.seed)
	if err != nil {
		return err
	}
	u1 := snapshot()
	wall, cpu := u1.at.Sub(u0.at).Seconds(), u1.cpu-u0.cpu
	heap := heapMB()
	// The unit of work is the training example, once through forward and
	// backward.
	units := float64(2 * epochs * len(env.examples))
	rows := float64(2 * epochs * env.rows)
	epochS := append(append([]float64(nil), a.epochS...), b.epochS...)

	rep.check(1, btoi(!bytes.Equal(a.model, b.model)), "two fits from one seed produced different model bytes")
	fell := a.losses[len(a.losses)-1] < a.losses[0]
	rep.check(1, btoi(!fell), fmt.Sprintf("loss did not fall: %.6f → %.6f", a.losses[0], a.losses[len(a.losses)-1]))
	rep.note("examples", len(env.examples))
	rep.note("epochs_per_fit", epochs)
	rep.note("loss_first_last", []float64{a.losses[0], a.losses[len(a.losses)-1]})

	// A batch job's result lag is the time from input to complete result:
	// one fit, start to saved model. It is the wall time units_per_s is
	// computed from, seen per fit instead of per example.
	rep.set("units_per_s", units/wall)
	rep.set("result_lag_p50_ms", median([]float64{a.wall, b.wall})*1e3)
	rep.set("cpu_ms_per_unit", cpu*1e3/units)
	rep.set("heap_mb", heap)
	rep.set("train_examples_per_s", units/wall)
	rep.set("runtime.cpu_s_per_wall_s", cpu/wall)
	rep.set("runtime.allocs_per_record", float64(u1.mallocs-u0.mallocs)/rows) // per feature row
	rep.set("runtime.gc_pause_ms", float64(u1.pauseNs-u0.pauseNs)/1e6)
	rep.set("core.fit_epoch_s", median(epochS))
	// Steady-state epochs: the first of each fit grows the scratch.
	var steady []float64
	for _, f := range []fitResult{a, b} {
		for _, n := range f.mallocs[1:] {
			steady = append(steady, float64(n))
		}
	}
	rep.set("core.fit_allocs_per_epoch", median(steady))
	rep.set("core.sparse_density", env.density)
	if opt.trace {
		fwd, bwd := env.lstmPasses(opt)
		rep.set("nn.fwd_us_per_seqstep", fwd)
		rep.set("nn.bwd_us_per_seqstep", bwd)
	}
	return nil
}

func btoi(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// lstmPasses times nn.LSTM.ForwardBatch and BackwardBatch in isolation on
// the example rows: one branch-sized LSTM, batches of equal-length
// sequences as the trainer's lanes form them, µs per sequence-step.
func (e *trainEnv) lstmPasses(opt options) (fwdUS, bwdUS float64) {
	byLen := map[int][]int{}
	for i, ex := range e.examples {
		byLen[len(ex.X)] = append(byLen[len(ex.X)], i)
	}
	l := nn.NewLSTM(e.cfg.NumFeatures, e.cfg.Hidden, rand.New(rand.NewSource(opt.seed)))
	var tape nn.BatchTape
	var scratch nn.BatchGradScratch
	var fwd, bwd time.Duration
	seqSteps := 0
	budget := time.Now().Add(opt.duration / 4)
	for time.Now().Before(budget) {
		for T, idxs := range byLen {
			for lo := 0; lo < len(idxs); lo += 12 {
				lane := idxs[lo:min(lo+12, len(idxs))]
				B := len(lane)
				tape.Reset(l, B, T)
				for t := 0; t < T; t++ {
					for i, ei := range lane {
						copy(tape.Xs[t].Row(i), e.examples[ei].X[t])
					}
				}
				tape.BuildSparse()
				dH := make([]nn.Batch, T)
				touched := make([]bool, T)
				for t := range dH {
					dH[t].Resize(B, e.cfg.Hidden)
					for j := range dH[t].Data {
						dH[t].Data[j] = 1e-3
					}
					touched[t] = true
				}
				t0 := time.Now()
				l.ForwardBatch(&tape)
				t1 := time.Now()
				l.BackwardBatch(&tape, dH, touched, &scratch)
				fwd += t1.Sub(t0)
				bwd += time.Since(t1)
				l.ZeroGrad()
				seqSteps += B * T
			}
		}
	}
	n := float64(max(seqSteps, 1))
	return fwd.Seconds() * 1e6 / n, bwd.Seconds() * 1e6 / n
}
