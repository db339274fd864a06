package core

// Batched training, and the one forward/backward pass of the model. Fit
// buckets each shuffled mini-batch into lanes of equal sequence length,
// splits every lane into near-even chunks, and runs each chunk as one
// batched BPTT pass (forward and backward over B sequences at once through
// the register-blocked nn kernels). All per-chunk storage lives in
// grow-only scratch owned by a reusable fitter, so a steady-state epoch —
// the same lane shapes recurring — allocates nothing. Survival and
// InputGradients run the same two halves on a batch of one.
//
// Determinism contract: chunks are assigned to workers round-robin
// (chunk j → worker j%workers), replica gradients are merged and losses
// summed in worker index order, and every batched kernel keeps its
// single-row counterpart's per-element summation order. Two Fit runs with
// the same (examples, Seed, Workers, BatchSize) therefore produce
// byte-identical weights.

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"github.com/xatu-go/xatu/internal/nn"
)

// TrainOptions tunes Fit.
type TrainOptions struct {
	Epochs    int
	BatchSize int
	// Workers is the number of parallel gradient replicas; 0 means
	// GOMAXPROCS. It is clamped to both BatchSize and len(examples), so no
	// replica is ever built that could only sit idle. Gradient reduction
	// runs in a fixed worker order, so training is bit-reproducible for a
	// given (Seed, Workers, BatchSize); changing Workers changes how lanes
	// are chunked and hence the floating-point summation order (not the
	// learning outcome).
	Workers int
	// Seed drives example shuffling and is used as-is: 0 is a valid fixed
	// seed, never replaced by a time-based one, so Fit is reproducible by
	// default — two runs with identical options and examples produce
	// byte-identical models.
	Seed int64
	// Progress, when non-nil, receives the mean loss after each epoch.
	Progress func(epoch int, meanLoss float64)
}

// trainScratch is one replica's reusable workspace for batched training.
// Every buffer is grow-only: reused when large enough, reallocated only
// when a bigger shape appears, so steady-state epochs run allocation-free.
type trainScratch struct {
	b, w, nShort int // the last forward: batch rows, detection steps, pooled-short steps

	tapes   [numBranches]nn.BatchTape
	dH      [numBranches]batchSeq // per-step dL/dH injections per branch
	touched [numBranches][]bool   // which steps received an injection
	dX      [numBranches]batchSeq // per-step dL/dx per branch, when requested
	bwd     nn.BatchGradScratch
	concats batchSeq  // head inputs, one B×(hidden·branches) batch per step
	zB      nn.Batch  // head outputs, B×1
	dzB     nn.Batch  // head output gradients, B×1
	dcc     nn.Batch  // head input gradients, B×(hidden·branches)
	zs      []float64 // pre-link head outputs, example-major [e*w+i]
	haz     []float64 // hazards, example-major
	dHaz    []float64 // dL/dλ, example-major
}

// batchSeq is a grow-only sequence of Batches. get never shrinks the
// underlying slice, so Batch backing arrays beyond the requested length
// keep their storage for later, larger requests.
type batchSeq struct{ bs []nn.Batch }

func (s *batchSeq) get(n, rows, cols int) []nn.Batch {
	for len(s.bs) < n {
		s.bs = append(s.bs, nn.Batch{})
	}
	out := s.bs[:n]
	for i := range out {
		out[i].Resize(rows, cols)
	}
	return out
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		s = make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// trainChunk runs one batched forward/backward pass over the same-length
// examples selected by idxs, accumulating gradients into m (normally a
// replica) and returning their summed loss.
func (m *Model) trainChunk(examples []Example, idxs []int, sc *trainScratch) (float64, error) {
	if err := m.forwardChunk(examples, idxs, sc); err != nil {
		return 0, err
	}
	w := sc.w
	sc.dHaz = growFloats(sc.dHaz, sc.b*w)
	var loss float64
	for e, ei := range idxs {
		loss += m.lossGradInto(sc.haz[e*w:(e+1)*w], &examples[ei], sc.dHaz[e*w:(e+1)*w])
	}
	m.backwardChunk(sc, false)
	return loss, nil
}

// forwardOne runs the forward pass over one base-resolution sequence as a
// batch of one, on fresh scratch: the offline (Survival, InputGradients)
// entry to the training pass.
func (m *Model) forwardOne(x [][]float64) (*trainScratch, error) {
	sc := &trainScratch{}
	return sc, m.forwardChunk([]Example{{X: x}}, []int{0}, sc)
}

// forwardChunk is the forward half of a chunk: it checks the width of
// every row of the same-length examples selected by idxs, runs every
// enabled branch over its pooled inputs, then the head over the detection
// window, leaving sc.w detection steps per example in sc (head inputs,
// pre-link outputs zs and hazards haz, example-major).
func (m *Model) forwardChunk(examples []Example, idxs []int, sc *trainScratch) error {
	B := len(idxs)
	T := len(examples[idxs[0]].X)
	for _, ei := range idxs {
		x := examples[ei].X
		if len(x) == 0 {
			return errors.New("core: empty input sequence")
		}
		for t := range x {
			if len(x[t]) != m.Cfg.NumFeatures {
				return fmt.Errorf("core: input width %d at step %d, model expects %d", len(x[t]), t, m.Cfg.NumFeatures)
			}
		}
	}
	hd := m.Cfg.Hidden
	act := m.activeBranches()

	// Forward every branch over the packed pooled inputs.
	for b, l := range m.lstms {
		if l == nil {
			continue
		}
		k := m.poolFactor(b)
		tp := &sc.tapes[b]
		tp.Reset(l, B, (T+k-1)/k)
		for e, ei := range idxs {
			nn.MeanPoolInto(tp.Xs, e, examples[ei].X, k)
		}
		tp.BuildSparse() // sparse input projection when the packed rows are sparse enough
		l.ForwardBatch(tp)
	}

	// Head forward over the detection window: the last w pooled-short steps.
	nShort := (T + m.Cfg.PoolShort - 1) / m.Cfg.PoolShort
	w := m.WindowLen(T)
	sc.b, sc.w, sc.nShort = B, w, nShort
	concats := sc.concats.get(w, B, hd*act)
	sc.zs = growFloats(sc.zs, B*w)
	sc.haz = growFloats(sc.haz, B*w)
	for i := 0; i < w; i++ {
		t := nShort - w + i
		cb := &concats[i]
		off := 0
		for b, l := range m.lstms {
			if l == nil {
				continue
			}
			idx := m.branchIdx(b, t, sc.tapes[b].T)
			for e := 0; e < B; e++ {
				dst := cb.Row(e)[off : off+hd]
				if idx >= 0 {
					copy(dst, sc.tapes[b].H[idx].Row(e))
				} else {
					dst.Zero() // branch still warming up: zero contribution
				}
			}
			off += hd
		}
		m.head.ForwardBatch(cb, &sc.zB)
		for e := 0; e < B; e++ {
			z := sc.zB.Data[e]
			sc.zs[e*w+i] = z
			sc.haz[e*w+i] = nn.Softplus(z)
		}
	}
	return nil
}

// backwardChunk is the backward half: it propagates the hazard gradients
// in sc.dHaz (example-major, as forwardChunk laid out the hazards) through
// the head and every branch's LSTM, accumulating weight gradients into m.
// With inputGrads set, sc.dX[b] also receives branch b's dL/dx per pooled
// step.
func (m *Model) backwardChunk(sc *trainScratch, inputGrads bool) {
	B, w, hd := sc.b, sc.w, m.Cfg.Hidden
	concats := sc.concats.bs[:w]

	// Head backward per detection step, scattering dL/dH into the branch
	// injection buffers. dH batches are zeroed lazily on first touch;
	// untouched steps are never read by BackwardBatch.
	for b, l := range m.lstms {
		if l == nil {
			continue
		}
		Tb := sc.tapes[b].T
		sc.dH[b].get(Tb, B, hd)
		sc.touched[b] = growBools(sc.touched[b], Tb)
	}
	for i := 0; i < w; i++ {
		t := sc.nShort - w + i
		any := false
		sc.dzB.Resize(B, 1)
		for e := 0; e < B; e++ {
			g := sc.dHaz[e*w+i]
			if g == 0 {
				sc.dzB.Data[e] = 0
				continue
			}
			any = true
			sc.dzB.Data[e] = g * nn.SoftplusPrime(sc.zs[e*w+i])
		}
		if !any {
			continue // a step with no loss gradient contributes nothing
		}
		m.head.BackwardBatch(&concats[i], &sc.dzB, &sc.dcc)
		off := 0
		for b, l := range m.lstms {
			if l == nil {
				continue
			}
			idx := m.branchIdx(b, t, sc.tapes[b].T)
			if idx >= 0 {
				dhB := &sc.dH[b].bs[idx]
				if !sc.touched[b][idx] {
					sc.touched[b][idx] = true
					for j := range dhB.Data {
						dhB.Data[j] = 0
					}
				}
				for e := 0; e < B; e++ {
					dhB.Row(e).Add(sc.dcc.Row(e)[off : off+hd])
				}
			}
			off += hd
		}
	}

	for b, l := range m.lstms {
		if l == nil {
			continue
		}
		var dX []nn.Batch
		if inputGrads {
			dX = sc.dX[b].get(sc.tapes[b].T, B, l.In)
		}
		l.BackwardBatchDX(&sc.tapes[b], sc.dH[b].bs, sc.touched[b], &sc.bwd, dX)
	}
}

// lane is the set of batch positions sharing one sequence length.
type lane struct {
	T    int
	idxs []int
}

// laneSet buckets a mini-batch of example indices by sequence length,
// reusing both the lane slice and each lane's index storage across batches.
// Lanes appear in first-appearance order within the shuffled batch, which
// is itself seed-deterministic.
type laneSet struct {
	lanes []lane
	n     int
}

func (ls *laneSet) reset() {
	for i := 0; i < ls.n; i++ {
		ls.lanes[i].idxs = ls.lanes[i].idxs[:0]
	}
	ls.n = 0
}

func (ls *laneSet) add(T, idx int) {
	for i := 0; i < ls.n; i++ {
		if ls.lanes[i].T == T {
			ls.lanes[i].idxs = append(ls.lanes[i].idxs, idx)
			return
		}
	}
	if ls.n == len(ls.lanes) {
		ls.lanes = append(ls.lanes, lane{})
	}
	l := &ls.lanes[ls.n]
	ls.n++
	l.T = T
	l.idxs = append(l.idxs[:0], idx)
}

// fitter owns every reusable piece of one Fit call: the optimizer, the
// shuffle state, the gradient replicas and their scratch. Constructing it
// once and calling runEpoch repeatedly is what lets steady-state epochs run
// without allocation (the alloc-pin test drives it directly).
type fitter struct {
	m        *Model
	opt      *nn.Adam
	rng      *rand.Rand
	epochs   int
	batch    int
	workers  int
	progress func(epoch int, meanLoss float64)

	order    []int
	replicas []*Model
	scratch  []*trainScratch
	lanes    laneSet
	chunks   [][]int
	losses   []float64
	errs     []error
}

func (m *Model) newFitter(examples []Example, opts TrainOptions) *fitter {
	if opts.Epochs <= 0 {
		opts.Epochs = 5
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 16
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > opts.BatchSize {
		workers = opts.BatchSize
	}
	if workers > len(examples) {
		workers = len(examples)
	}
	f := &fitter{
		m:        m,
		opt:      nn.NewAdam(m.Cfg.LearningRate, m.Params()),
		rng:      rand.New(rand.NewSource(opts.Seed)),
		epochs:   opts.Epochs,
		batch:    opts.BatchSize,
		workers:  workers,
		progress: opts.Progress,
		order:    make([]int, len(examples)),
		replicas: make([]*Model, workers),
		scratch:  make([]*trainScratch, workers),
		losses:   make([]float64, workers),
		errs:     make([]error, workers),
	}
	for i := range f.order {
		f.order[i] = i
	}
	for i := range f.replicas {
		f.replicas[i] = m.Replica()
		f.scratch[i] = &trainScratch{}
	}
	return f
}

// runWorker processes every chunk assigned to worker wkr (round-robin by
// chunk index) on its replica, recording the summed loss or first error.
func (f *fitter) runWorker(examples []Example, wkr int) {
	r, sc := f.replicas[wkr], f.scratch[wkr]
	var sum float64
	for j := wkr; j < len(f.chunks); j += f.workers {
		l, err := r.trainChunk(examples, f.chunks[j], sc)
		if err != nil {
			f.errs[wkr] = err
			return
		}
		sum += l
	}
	f.losses[wkr] = sum
}

// runEpoch shuffles the example order and makes one full pass, stepping the
// optimizer once per mini-batch. It returns the epoch's mean loss. On a
// worker error it zeroes every replica's gradients and returns without
// merging, so the model's weights are exactly as the last completed
// optimizer step left them.
func (f *fitter) runEpoch(examples []Example) (float64, error) {
	f.rng.Shuffle(len(f.order), func(i, j int) { f.order[i], f.order[j] = f.order[j], f.order[i] })
	var epochLoss float64
	for lo := 0; lo < len(f.order); lo += f.batch {
		hi := lo + f.batch
		if hi > len(f.order) {
			hi = len(f.order)
		}
		batch := f.order[lo:hi]

		// Bucket by sequence length, then split each lane into chunks of at
		// most ceil(len(batch)/workers) so a uniform-length batch yields
		// exactly `workers` near-even chunks.
		f.lanes.reset()
		for _, idx := range batch {
			f.lanes.add(len(examples[idx].X), idx)
		}
		target := (len(batch) + f.workers - 1) / f.workers
		f.chunks = f.chunks[:0]
		for i := 0; i < f.lanes.n; i++ {
			idxs := f.lanes.lanes[i].idxs
			for clo := 0; clo < len(idxs); clo += target {
				chi := clo + target
				if chi > len(idxs) {
					chi = len(idxs)
				}
				f.chunks = append(f.chunks, idxs[clo:chi])
			}
		}

		if f.workers == 1 {
			// Inline: identical chunk order to the goroutine path at
			// workers==1, without the spawn cost (keeps the step 0-alloc).
			f.runWorker(examples, 0)
		} else {
			var wg sync.WaitGroup
			for wkr := 0; wkr < f.workers; wkr++ {
				wg.Add(1)
				go func(wkr int) {
					defer wg.Done()
					f.runWorker(examples, wkr)
				}(wkr)
			}
			wg.Wait()
		}

		var trainErr error
		for wkr := 0; wkr < f.workers; wkr++ {
			if f.errs[wkr] != nil && trainErr == nil {
				trainErr = f.errs[wkr]
			}
		}
		if trainErr != nil {
			// Do NOT merge: a failed batch must leave the model untouched.
			// Partial gradients may sit in any replica; drop them all.
			for wkr := range f.errs {
				f.errs[wkr] = nil
				f.losses[wkr] = 0
			}
			for _, r := range f.replicas {
				r.ZeroGrad()
			}
			return 0, trainErr
		}
		// Fixed reduction order — losses sum and replicas merge in worker
		// index order, so the floating-point results are identical run to
		// run for a given (Seed, Workers, BatchSize).
		for wkr := 0; wkr < f.workers; wkr++ {
			epochLoss += f.losses[wkr]
			f.losses[wkr] = 0
			f.replicas[wkr].MergeGradsInto(f.m)
		}
		f.opt.Step(1 / float64(len(batch)))
	}
	return epochLoss / float64(len(examples)), nil
}

// Fit trains the model with Adam over the examples using the batched BPTT
// path. It returns the mean loss of the final epoch. On error the model's
// weights are exactly as the last completed optimizer step left them — no
// partial gradients from the failing batch are applied.
func (m *Model) Fit(examples []Example, opts TrainOptions) (float64, error) {
	if len(examples) == 0 {
		return 0, errors.New("core: no training examples")
	}
	f := m.newFitter(examples, opts)
	var finalLoss float64
	for epoch := 0; epoch < f.epochs; epoch++ {
		l, err := f.runEpoch(examples)
		if err != nil {
			if f.opt.StepCount() > 0 {
				// Earlier batches already moved the weights this Fit; any
				// cached float32 quantization is stale.
				m.invalidateQuantized()
			}
			return 0, err
		}
		finalLoss = l
		if f.progress != nil {
			f.progress(epoch, finalLoss)
		}
	}
	// Weights changed: any cached float32 quantization is stale.
	m.invalidateQuantized()
	return finalLoss, nil
}
