package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"time"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/ingest"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/nn"
)

// Isolated layer replays. The traced run captures a slice of the
// workload's own input — datagrams exactly as the system received them —
// and pushes it through each layer's public function alone, one goroutine,
// each stage's output feeding the next:
//
//	DecodeV5Into → Aggregator.AddBatch → SortRecordsCanonical → ExtractInto
//	→ BatchRunner32.Push → Monitor.ObserveStep → Engine.Submit…Drain
//
// which gives busy time per unit of work with no queueing in it. The same
// capture then runs through the serial replayer (the whole job on one
// goroutine); the ledger sets the sum of the layers beside that.

// capture is a replayable slice of a workload's input.
type capture struct {
	replay   func(sink func(src string, pkt []byte))
	step     time.Duration
	lateness time.Duration
	mc       engine.MonitorConfig
	minTime  time.Duration // least time a repeatable stage is run for
}

// bucket is one sealed (customer, step) with its records.
type bucket struct {
	dst  netip.Addr
	at   time.Time
	recs []netflow.Record
}

// layerCosts are the isolated per-unit costs of one capture.
type layerCosts struct {
	records, steps                   int
	decodeNs, aggregateNs, sortNs    float64 // per record
	exportNs                         float64 // per record
	extractUS, normalizeUS           float64 // per customer-step
	nonzeroShare                     float64
	push1US, push64US                float64 // per stream-step
	push6US                          float64 // per customer-step (six channels in one batch)
	stateBytes                       float64
	observeUS, submitUS              float64 // per customer-step
	checkpointMs, checkpointPerCust  float64
	ingestRPS                        float64
	lstmStepNs, macPerStep, gmacPerS float64
	serialUS                         float64 // per customer-step
	serialRPS                        float64
}

// timeIt runs fn until at least minDur has elapsed and returns the mean
// duration of one call.
func timeIt(minDur time.Duration, fn func()) time.Duration {
	runtime.GC() // start every stage from the same collector state
	n := 0
	start := time.Now()
	for {
		fn()
		n++
		if el := time.Since(start); el >= minDur {
			return el / time.Duration(n)
		}
	}
}

const layerMinTime = 200 * time.Millisecond

func measureLayers(c capture, seed int64) (layerCosts, error) {
	var lc layerCosts
	type dgramCopy struct {
		src string
		pkt []byte
	}
	var dgs []dgramCopy
	c.replay(func(src string, pkt []byte) {
		dgs = append(dgs, dgramCopy{src, append([]byte(nil), pkt...)})
	})
	if len(dgs) == 0 {
		return lc, fmt.Errorf("empty capture")
	}

	// decode
	scratch := make([]netflow.Record, 0, netflow.MaxRecordsPerPacket)
	decoded := make([][]netflow.Record, 0, len(dgs))
	tracker := netflow.NewSeqTracker()
	for _, d := range dgs {
		h, recs, err := netflow.DecodeV5Into(d.pkt, scratch)
		if err != nil || tracker.Track(d.src, h, len(recs)) {
			continue // bad or duplicate datagram: never reaches aggregation
		}
		decoded = append(decoded, append([]netflow.Record(nil), recs...))
		lc.records += len(recs)
	}
	per := timeIt(c.minTime, func() {
		for _, d := range dgs {
			_, scratch, _ = netflow.DecodeV5Into(d.pkt, scratch)
		}
	})
	lc.decodeNs = float64(per.Nanoseconds()) / float64(lc.records)

	// aggregate: the serving path hands record slices to the engine
	// (RecycleShell), so bucket storage is allocated, not recycled.
	var buckets []bucket
	agg := netflow.NewAggregator(c.step, c.lateness)
	emit := func(sealed []netflow.StepBatch) {
		for _, b := range sealed {
			for dst, recs := range b.ByDst {
				buckets = append(buckets, bucket{dst, b.Start, recs})
			}
			agg.RecycleShell(b)
		}
	}
	runtime.GC()
	t0 := time.Now()
	for _, recs := range decoded {
		agg.AddBatch(recs, emit)
	}
	emit(agg.Flush())
	lc.aggregateNs = float64(time.Since(t0).Nanoseconds()) / float64(lc.records)
	lc.steps = len(buckets)
	inBuckets := 0
	for _, b := range buckets {
		inBuckets += len(b.recs)
	}

	// sort (one pass: a second pass would sort sorted input)
	runtime.GC()
	t0 = time.Now()
	for _, b := range buckets {
		netflow.SortRecordsCanonical(b.recs)
	}
	lc.sortNs = float64(time.Since(t0).Nanoseconds()) / float64(max(inBuckets, 1))

	// extract
	ex := c.mc.Extractor
	var fs features.Scratch
	raws, feats := make([][]float64, len(buckets)), make([][]float64, len(buckets))
	nonzero := 0
	for i, b := range buckets {
		raws[i] = ex.ExtractInto(nil, &fs, b.dst, b.at, b.recs)
		for _, v := range raws[i] {
			if v != 0 {
				nonzero++
			}
		}
		feats[i] = append([]float64(nil), raws[i]...)
		features.Normalize(feats[i])
	}
	lc.nonzeroShare = float64(nonzero) / float64(len(buckets)*features.NumFeatures)
	var fbuf []float64
	per = timeIt(c.minTime, func() {
		for _, b := range buckets {
			fbuf = ex.ExtractInto(fbuf, &fs, b.dst, b.at, b.recs)
		}
	})
	lc.extractUS = per.Seconds() * 1e6 / float64(len(buckets))
	// features.Normalize, on a copy of each raw vector so every pass does
	// the first pass's work (the 2 KB copy is a few per cent of it).
	nbuf := make([]float64, features.NumFeatures)
	per = timeIt(c.minTime/2, func() {
		for i := range raws {
			copy(nbuf, raws[i])
			features.Normalize(nbuf)
		}
	})
	lc.normalizeUS = per.Seconds() * 1e6 / float64(len(buckets))
	// model: BatchRunner32.Push over per-customer streams that persist
	// across steps, as the Monitor holds them.
	model := c.mc.Default
	runner, err := core.NewBatchRunner32(model)
	if err != nil {
		return lc, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	streams := map[netip.Addr][]*core.Stream{}
	var order []netip.Addr
	for _, b := range buckets {
		if _, ok := streams[b.dst]; !ok {
			ss := make([]*core.Stream, 6)
			for k := range ss {
				ss[k] = runner.NewStream()
			}
			streams[b.dst] = ss
			order = append(order, b.dst)
		}
	}
	runtime.ReadMemStats(&ms1)
	lc.stateBytes = float64(ms1.HeapAlloc-ms0.HeapAlloc) / float64(6*len(order))
	out := make([]float64, 64)
	xs := make([][]float64, 64)
	per = timeIt(c.minTime, func() {
		for i, b := range buckets {
			for k := 0; k < 6; k++ {
				xs[k] = feats[i]
			}
			runner.Push(streams[b.dst], xs[:6], out[:6])
		}
	})
	lc.push6US = per.Seconds() * 1e6 / float64(len(buckets))
	per = timeIt(c.minTime, func() {
		for i, b := range buckets {
			xs[0] = feats[i]
			runner.Push(streams[b.dst][:1], xs[:1], out[:1])
		}
	})
	lc.push1US = per.Seconds() * 1e6 / float64(len(buckets))
	// Batches of 64 streams: one channel of each of up to 64 customers
	// (fewer customers → several channels per customer).
	var lane []*core.Stream
	for k := 0; len(lane) < 64 && k < 6; k++ {
		for _, dst := range order {
			if len(lane) < 64 {
				lane = append(lane, streams[dst][k])
			}
		}
	}
	for i := range xs[:len(lane)] {
		xs[i] = feats[i%len(feats)]
	}
	per = timeIt(c.minTime, func() { runner.Push(lane, xs[:len(lane)], out[:len(lane)]) })
	lc.push64US = per.Seconds() * 1e6 / float64(len(lane))

	// one LSTM cell, float32, batch of one: the kernel under all of it
	cell, err := nn.NewLSTM(model.Cfg.NumFeatures, model.Cfg.Hidden, rand.New(rand.NewSource(seed))).Quantize32()
	if err != nil {
		return lc, err
	}
	h, cc := nn.NewVec32(cell.Hidden), nn.NewVec32(cell.Hidden)
	x := nn.Narrow32(feats[0], nil)
	var ss nn.StepScratch32
	per = timeIt(c.minTime/2, func() {
		for i := 0; i < 256; i++ {
			h, cc = cell.Step32(h, cc, x, &ss)
		}
	})
	lc.lstmStepNs = float64(per.Nanoseconds()) / 256
	lc.macPerStep = float64(4 * cell.Hidden * (cell.In + cell.Hidden))
	lc.gmacPerS = lc.macPerStep / lc.lstmStepNs

	// Monitor.ObserveStep, one goroutine. Here and in the two stages below a
	// first, untimed pass creates the customers' channels: allocating and
	// first touching 16 KB per stream is set-up (the warm-up pays it in the
	// end-to-end runs), and the push stage above does not pay it either.
	mon, err := engine.NewMonitor(c.mc)
	if err != nil {
		return lc, err
	}
	observeAll := func(mon *engine.Monitor) {
		for _, b := range buckets {
			mon.ObserveStep(b.dst, b.at, b.recs)
		}
	}
	observeAll(mon)
	per = timeIt(c.minTime, func() { observeAll(mon) })
	lc.observeUS = per.Seconds() * 1e6 / float64(len(buckets))

	// the pipeline with a no-op sink: hand-off cost on top of the stages
	pipe, err := ingest.New(ingest.Config{
		DecodeWorkers: 1, AggWorkers: 1, Step: c.step, Lateness: c.lateness,
		OnStep: func(netip.Addr, time.Time, []float64, []netflow.Record) {},
	})
	if err != nil {
		return lc, err
	}
	runtime.GC()
	t0 = time.Now()
	for _, d := range dgs {
		pipe.HandlePacket(d.src, d.pkt)
	}
	pipe.Close()
	lc.ingestRPS = float64(pipe.Stats().Records) / time.Since(t0).Seconds()

	// exporter alone, into a conn that discards
	exp, err := netflow.NewExporterWithConfig(netflow.ExporterConfig{
		Dial:     func() (net.Conn, error) { return discardConn{}, nil },
		BootTime: buckets[0].at.Add(-time.Hour),
	})
	if err != nil {
		return lc, err
	}
	t0 = time.Now()
	for _, recs := range decoded {
		for i := range recs {
			_ = exp.Export(recs[i]) // decoded records are valid by construction
		}
	}
	_ = exp.Close()
	lc.exportNs = float64(time.Since(t0).Nanoseconds()) / float64(lc.records)

	// Engine.Submit … Drain, one shard: ObserveStep plus the mailbox. Last,
	// because Submit takes ownership of the record slices.
	eng, err := engine.New(servingEngine(c.mc, 1, c.step))
	if err != nil {
		return lc, err
	}
	drain := drainAlerts(eng.Alerts())
	submitAll := func(own func([]netflow.Record) []netflow.Record) error {
		for _, b := range buckets {
			if err := eng.Submit(b.dst, b.at, own(b.recs)); err != nil {
				return err
			}
		}
		return eng.Drain()
	}
	if err := submitAll(func(r []netflow.Record) []netflow.Record { return append([]netflow.Record(nil), r...) }); err != nil {
		return lc, err
	}
	runtime.GC()
	t0 = time.Now()
	if err := submitAll(func(r []netflow.Record) []netflow.Record { return r }); err != nil {
		return lc, err
	}
	lc.submitUS = time.Since(t0).Seconds() * 1e6 / float64(len(buckets))
	var ckpt bytes.Buffer
	t0 = time.Now()
	if err := eng.Checkpoint(&ckpt); err != nil {
		return lc, err
	}
	lc.checkpointMs = time.Since(t0).Seconds() * 1e3
	lc.checkpointPerCust = float64(ckpt.Len()) / float64(len(order))
	eng.Close()
	<-drain.done

	// the whole job on one goroutine
	ref, err := newReplayer(c.mc, c.step, c.lateness, nil, nil)
	if err != nil {
		return lc, err
	}
	for _, b := range buckets {
		ref.mon.ObserveStep(b.dst, b.at, nil) // channels only: the engine owns b.recs by now
	}
	runtime.GC()
	t0 = time.Now()
	for _, d := range dgs {
		ref.handlePacket(d.src, d.pkt)
	}
	ref.flush()
	el := time.Since(t0).Seconds()
	lc.serialUS = el * 1e6 / float64(max(int(ref.sealed), 1))
	lc.serialRPS = float64(ref.records) / el
	return lc, nil
}

type discardConn struct{}

func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return &net.UDPAddr{} }
func (discardConn) RemoteAddr() net.Addr             { return &net.UDPAddr{} }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// ledgerRow is one layer's busy time per customer-step, measured alone.
type ledgerRow struct {
	Layer    string  `json:"layer"`
	USPerStp float64 `json:"us_per_step"`
	Share    float64 `json:"share_of_sum"`
	Intended bool    `json:"intended"` // a layer this workload is meant to stress
}

// ledger sets the isolated layers beside the serial run and the
// end-to-end run, all in µs per customer-step. Every row is a measurement
// of its own; nothing in the sum is defined as a difference, so the sum can
// disagree with both wholes it is checked against: Monitor.ObserveStep
// (extract + normalize + push, plus bookkeeping no public function
// exposes) and the serial job.
type ledger struct {
	Rows            []ledgerRow `json:"rows"`
	SumUS           float64     `json:"sum_us_per_step"`
	SerialUS        float64     `json:"serial_us_per_step"`
	Unexplained     float64     `json:"unexplained_share"` // (serial − sum) / serial
	IntendedShare   float64     `json:"intended_share"`
	ObserveUS       float64     `json:"observe_us_per_step"`    // Monitor.ObserveStep, whole
	MonitorResidual float64     `json:"monitor_residual_share"` // (observe − extract − normalize − push) / observe
	MailboxUS       float64     `json:"mailbox_us_per_step"`    // engine hand-off, not part of the serial job
	WallUS          float64     `json:"end_to_end_wall_us_per_step"`
	CPUUS           float64     `json:"end_to_end_cpu_us_per_step"`
	Speedup         float64     `json:"pipeline_speedup"` // serial ÷ end-to-end wall
	RecordsPerStep  float64     `json:"records_per_step"`
}

// buildLedger assembles the ledger. stress names the half of the stack the
// workload is meant to load: "model" (push), "ingest" (decode, aggregate,
// sort, extract, normalize), or "" for neither.
func buildLedger(lc layerCosts, stress string, wallUS, cpuUS float64) *ledger {
	rps := float64(lc.records) / float64(lc.steps)
	l := &ledger{SerialUS: lc.serialUS, WallUS: wallUS, CPUUS: cpuUS, RecordsPerStep: rps,
		ObserveUS: lc.observeUS, MailboxUS: lc.submitUS - lc.observeUS,
		MonitorResidual: (lc.observeUS - lc.extractUS - lc.normalizeUS - lc.push6US) / lc.observeUS}
	add := func(name string, us float64, half string) {
		l.Rows = append(l.Rows, ledgerRow{Layer: name, USPerStp: us, Intended: half == stress})
		l.SumUS += us
	}
	add("netflow.decode", lc.decodeNs*rps/1e3, "ingest")
	add("netflow.aggregate", lc.aggregateNs*rps/1e3, "ingest")
	add("netflow.sort", lc.sortNs*rps/1e3, "ingest")
	add("features.extract", lc.extractUS, "ingest")
	add("features.normalize", lc.normalizeUS, "ingest")
	add("core.push (6 channels)", lc.push6US, "model")
	for i := range l.Rows {
		l.Rows[i].Share = l.Rows[i].USPerStp / l.SumUS
		if l.Rows[i].Intended {
			l.IntendedShare += l.Rows[i].Share
		}
	}
	l.Unexplained = (l.SerialUS - l.SumUS) / l.SerialUS
	if wallUS > 0 {
		l.Speedup = l.SerialUS / wallUS
	}
	return l
}

func (l *ledger) print(workload string) {
	fmt.Printf("# ledger %s: busy µs per customer-step (%.1f records per step)\n", workload, l.RecordsPerStep)
	for _, r := range l.Rows {
		mark := " "
		if r.Intended {
			mark = "*"
		}
		fmt.Printf("#   %s %-24s %10.2f  %5.1f %%\n", mark, r.Layer, r.USPerStp, 100*r.Share)
	}
	fmt.Printf("#     %-24s %10.2f\n", "sum of layers", l.SumUS)
	fmt.Printf("#     %-24s %10.2f  (unexplained %.1f %% of serial)\n", "serial, one goroutine", l.SerialUS, 100*l.Unexplained)
	fmt.Printf("#     %-24s %10.2f  (%.1f %% of it is in none of extract, normalize, push)\n", "Monitor.ObserveStep", l.ObserveUS, 100*l.MonitorResidual)
	fmt.Printf("#     %-24s %10.2f  (Engine.Submit…Drain − ObserveStep; not in the serial job)\n", "engine mailbox", l.MailboxUS)
	fmt.Printf("#     %-24s %10.2f  wall, %.2f CPU  (pipeline speed-up %.2f× over serial)\n", "end to end", l.WallUS, l.CPUUS, l.Speedup)
	if l.IntendedShare > 0 {
		fmt.Printf("#     layers marked * are the ones this workload is meant to stress: %.1f %% of the sum\n", 100*l.IntendedShare)
	}
}

// report copies the layer costs and the ledger into the metric list and,
// when gate is set (every run but the smoke pass), applies the ledger's
// validity gates.
func (lc layerCosts) report(rep *report, l *ledger, gate bool) {
	rep.set("netflow.decode_ns_per_record", lc.decodeNs)
	rep.set("netflow.aggregate_ns_per_record", lc.aggregateNs)
	rep.set("netflow.sort_ns_per_record", lc.sortNs)
	rep.set("netflow.export_ns_per_record", lc.exportNs)
	rep.set("ingest.records_per_s", lc.ingestRPS)
	rep.set("ingest.handoff_ns_per_record", 1e9/lc.ingestRPS-(lc.decodeNs+lc.aggregateNs+lc.sortNs))
	rep.set("features.extract_us_per_step", lc.extractUS)
	rep.set("features.extract_ns_per_record", lc.extractUS*1e3*float64(lc.steps)/float64(lc.records))
	rep.set("features.nonzero_share", lc.nonzeroShare)
	rep.set("features.normalize_us_per_step", lc.normalizeUS)
	rep.set("core.push1_us_per_step", lc.push1US)
	rep.set("core.push6_us_per_step", lc.push6US)
	rep.set("core.push64_us_per_step", lc.push64US)
	rep.set("core.state_bytes_per_stream", lc.stateBytes)
	rep.set("nn.lstm_step_ns", lc.lstmStepNs)
	rep.set("nn.mac_per_step", lc.macPerStep)
	rep.set("nn.gmac_per_s", lc.gmacPerS)
	rep.set("engine.observe_us_per_step", lc.observeUS)
	rep.set("engine.submit_us_per_step", lc.submitUS)
	rep.set("engine.mailbox_us_per_step", lc.submitUS-lc.observeUS)
	rep.set("engine.monitor_residual_share", l.MonitorResidual)
	rep.set("engine.checkpoint_ms", lc.checkpointMs)
	rep.set("engine.checkpoint_bytes_per_customer", lc.checkpointPerCust)
	rep.set("serial.records_per_s", lc.serialRPS)
	rep.set("serial.us_per_step", lc.serialUS)
	rep.set("ledger.sum_us_per_step", l.SumUS)
	rep.set("ledger.unexplained_share", l.Unexplained)
	rep.set("ledger.intended_share", l.IntendedShare)
	rep.set("ledger.pipeline_speedup", l.Speedup)
	rep.Ledger = l
	if !gate {
		return
	}
	// The split between extraction and the model is only as good as the
	// parts are: measured alone they must fit the ObserveStep they are the
	// parts of. The true remainder (map lookups, the alert loop) is a few per
	// cent; the stages are timed seconds apart on a box whose speed drifts
	// ±12 %, hence the width of the window.
	if l.MonitorResidual < -0.20 || l.MonitorResidual > 0.30 {
		rep.invalid("extract + normalize + push measured alone leave %.1f %% of Monitor.ObserveStep (%.2f µs) over; want −20 %% … 30 %%",
			100*l.MonitorResidual, l.ObserveUS)
	}
	// The two closed-loop workloads exist to separate the two halves of the
	// stack. The halves partition the ledger, so "intended ≥ 60 % here" and
	// "the other workload's layers ≤ 25 % here" are one condition.
	if l.IntendedShare > 0 && l.IntendedShare < 0.75 {
		rep.invalid("the layers this workload is meant to stress are %.1f %% of busy time, below 75 %%", 100*l.IntendedShare)
	}
}
