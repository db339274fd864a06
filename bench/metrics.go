package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef is one row of the metric dictionary: the single source of
// truth BENCHMARK.json, the README table and the -compare verdicts are all
// checked against.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // share of the base median a change may worsen it by; 0 = ungated
}

// endToEnd lists the gated metrics. The driver wants every one of them from
// every workload, so each is named for what it is on all four: the
// workload's own unit of work is a customer-step on the three streaming
// workloads and a training example on train_fit. The issue's
// workload-specific names for the same measurements (records_per_s,
// wire_to_verdict_p50_ms, train_examples_per_s, …) are reported ungated, on
// the workloads they apply to.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"units_per_s", "1/s", "higher", 0.25},
	{"result_lag_p50_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_unit", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
}

// perLayer lists the ungated metrics, printed by every workload with
// -trace 1. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// The issue's end-to-end names. failed_share is 0 by design and the rest
	// have no value on some workload, and a gated metric may be neither; the
	// p99 is set only by runs with the ≥1000 ticks it needs.
	{"failed_share", "share", "lower", 0},
	{"records_per_s", "1/s", "higher", 0},
	{"steps_per_s", "1/s", "higher", 0},
	{"cpu_s_per_mrecord", "s", "lower", 0},
	{"train_examples_per_s", "1/s", "higher", 0},
	{"wire_to_verdict_p50_ms", "ms", "lower", 0},
	{"wire_to_verdict_p99_ms", "ms", "lower", 0},
	{"wire_to_verdict_samples", "count", "higher", 0},

	{"netflow.decode_ns_per_record", "ns", "lower", 0},
	{"netflow.aggregate_ns_per_record", "ns", "lower", 0},
	{"netflow.sort_ns_per_record", "ns", "lower", 0},
	{"netflow.export_ns_per_record", "ns", "lower", 0},
	{"netflow.dup_packets", "count", "lower", 0},
	{"netflow.lost_records", "count", "lower", 0},
	{"netflow.reordered_packets", "count", "lower", 0},

	{"ingest.records_per_s", "1/s", "higher", 0},
	{"ingest.handoff_ns_per_record", "ns", "lower", 0},
	{"ingest.pool_miss_share", "share", "lower", 0},
	{"ingest.dropped_late_share", "share", "lower", 0},
	{"ingest.seal_to_submit_ms_p50", "ms", "lower", 0},

	{"features.extract_us_per_step", "us", "lower", 0},
	{"features.extract_ns_per_record", "ns", "lower", 0},
	{"features.nonzero_share", "share", "higher", 0},
	{"features.normalize_us_per_step", "us", "lower", 0},

	{"core.push1_us_per_step", "us", "lower", 0},
	{"core.push6_us_per_step", "us", "lower", 0},
	{"core.push64_us_per_step", "us", "lower", 0},
	{"core.state_bytes_per_stream", "B", "lower", 0},
	{"nn.lstm_step_ns", "ns", "lower", 0},
	{"nn.mac_per_step", "count", "lower", 0},
	{"nn.gmac_per_s", "1/s", "higher", 0},

	{"engine.observe_us_per_step", "us", "lower", 0},
	{"engine.submit_us_per_step", "us", "lower", 0},
	{"engine.mailbox_us_per_step", "us", "lower", 0},
	{"engine.monitor_residual_share", "share", "lower", 0},
	{"engine.step_avg_us", "us", "lower", 0},
	{"engine.queue_high_water", "count", "lower", 0},
	{"engine.shard_skew", "share", "lower", 0},
	{"engine.shed_share", "share", "lower", 0},
	{"engine.alerts", "count", "higher", 0},
	{"engine.checkpoint_ms", "ms", "lower", 0},
	{"engine.checkpoint_bytes_per_customer", "B", "lower", 0},

	{"cluster.route_ns_per_record", "ns", "lower", 0},
	{"cluster.forward_share", "share", "lower", 0},
	{"cluster.dropped_share", "share", "lower", 0},
	{"cluster.wire_to_alert_p50_ms", "ms", "lower", 0},

	{"trace.overhead_share", "share", "lower", 0},
	{"trace.export_to_decode_us_p50", "us", "lower", 0},
	{"trace.decode_to_seal_us_p50", "us", "lower", 0},
	{"trace.step_us_p50", "us", "lower", 0},

	{"core.fit_epoch_s", "s", "lower", 0},
	{"core.fit_allocs_per_epoch", "count", "lower", 0},
	{"core.sparse_density", "share", "lower", 0},
	{"nn.fwd_us_per_seqstep", "us", "lower", 0},
	{"nn.bwd_us_per_seqstep", "us", "lower", 0},

	{"serial.records_per_s", "1/s", "higher", 0},
	{"serial.us_per_step", "us", "lower", 0},
	{"ledger.sum_us_per_step", "us", "lower", 0},
	{"ledger.unexplained_share", "share", "lower", 0},
	{"ledger.intended_share", "share", "higher", 0},
	{"ledger.pipeline_speedup", "x", "higher", 0},
	{"runtime.cpu_s_per_wall_s", "share", "higher", 0},
	{"runtime.allocs_per_record", "count", "lower", 0},
	{"runtime.gc_pause_ms", "ms", "lower", 0},
	{"gen.lateness_p99_ms", "ms", "lower", 0},
	{"gen.loopback_lost_packets", "count", "lower", 0},
}

func defOf(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

// tailLadder are the percentiles a tail may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// supportedTail returns the highest ladder percentile, capped at want,
// that still leaves at least ten of n samples beyond it (p99 needs 1000
// samples); 0 when even the median does not.
func supportedTail(n int, want float64) float64 {
	best := 0.0
	for _, p := range tailLadder {
		if p <= want && float64(n)*(100-p)/100 >= 10 {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 { return rusageSeconds(syscall.RUSAGE_SELF) }

// threadCPU is the calling thread's user+system CPU time so far.
func threadCPU() float64 { return rusageSeconds(syscall.RUSAGE_THREAD) }

func rusageSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// benchOwned counts bytes of large buffers the benchmark itself holds
// across a timed run (packet templates, the datagram tap); heapMB
// subtracts them so heap_mb reports the system's state, not the harness's.
var benchOwned int64

func ownedBytes(n int) []byte {
	benchOwned += int64(n)
	return make([]byte, n)
}

// heapMB forces a collection and returns HeapInuse net of bench-owned
// arenas, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(int64(ms.HeapInuse)-benchOwned) / (1 << 20)
}

// usage is a snapshot of the process-wide counters a timed section is
// charged against.
type usage struct {
	at      time.Time
	cpu     float64
	mallocs uint64
	pauseNs uint64
}

func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuSeconds(), mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}
