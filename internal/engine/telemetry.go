package engine

import (
	"strconv"
	"time"

	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/telemetry"
)

// engineMetrics is the engine's registered metric surface. Counters that
// the shards already keep as atomics are exported via CounterFunc — the
// hot path pays nothing it was not already paying — while latency
// histograms are the only new per-step work: two Observe calls (a few
// atomic adds each) per processed message, bounded by the <5% overhead
// budget proven in BenchmarkEngineShards4Telemetry.
type engineMetrics struct {
	// stepLatency is the in-shard ObserveStep duration (detection compute).
	stepLatency *telemetry.Histogram
	// submitLatency is Submit-to-processed: queue wait plus detection plus
	// alert fan-out, the operator-visible freshness of the pipeline.
	submitLatency *telemetry.Histogram
	// checkpointLatency times whole-fleet Checkpoint calls.
	checkpointLatency *telemetry.Histogram
	// alertsByType counts alerts per attack-type slug.
	alertsByType [ddos.NumAttackTypes]*telemetry.Counter
	// mitigationEnds counts processed EndMitigation signals.
	mitigationEnds *telemetry.Counter
	// recoveryLatency times supervised shard recoveries (monitor rebuild
	// from snapshot + WAL replay).
	recoveryLatency *telemetry.Histogram
	// fallbackAlerts counts alerts emitted by the CDetOnly fallback.
	fallbackAlerts *telemetry.Counter
}

// registerMetrics builds the engine's metric families on reg. Per-shard
// counters and queue gauges are labeled shard="<i>" and read straight
// from the shard atomics at scrape time.
func (e *Engine) registerMetrics(reg *telemetry.Registry) *engineMetrics {
	m := &engineMetrics{
		stepLatency: reg.Histogram("xatu_engine_step_seconds",
			"In-shard detection step latency (feature extraction + model forward). A shard steps the run of one tick's steps waiting in its mailbox as one batch; each step observes its share of the batch (batch time / steps in it)."),
		submitLatency: reg.Histogram("xatu_engine_submit_to_alert_seconds",
			"Latency from Submit/ObserveMissing to the step fully processed and its alerts emitted (queue wait + detection)."),
		checkpointLatency: reg.Histogram("xatu_engine_checkpoint_seconds",
			"Whole-fleet drain + checkpoint serialization duration."),
		mitigationEnds: reg.Counter("xatu_engine_mitigation_ends_total",
			"EndMitigation signals processed."),
		recoveryLatency: reg.Histogram("xatu_engine_recovery_seconds",
			"Supervised shard recovery duration (monitor rebuild + WAL replay)."),
		fallbackAlerts: reg.Counter("xatu_engine_fallback_alerts_total",
			"Alerts emitted by the pass-through CDet fallback in CDetOnly mode."),
	}
	reg.GaugeFunc("xatu_engine_health_state",
		"Engine degradation level: 0=healthy, 1=degraded, 2=cdet-only.",
		func() float64 { return float64(e.health.Load()) })
	for at := ddos.AttackType(0); at < ddos.NumAttackTypes; at++ {
		m.alertsByType[at] = reg.Counter("xatu_monitor_alerts_total",
			"Alerts raised by the detection core, by attack type.",
			telemetry.Label{Name: "type", Value: at.String()})
	}
	for _, s := range e.shards {
		s := s
		lbl := telemetry.Label{Name: "shard", Value: strconv.Itoa(s.id)}
		reg.CounterFunc("xatu_engine_submitted_total",
			"Telemetry messages enqueued (steps + missing).",
			func() float64 { return float64(s.submitted.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_shed_total",
			"Telemetry messages dropped by the ShedOldest policy.",
			func() float64 { return float64(s.shed.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_requeued_total",
			"Control messages requeued behind the tail instead of shed.",
			func() float64 { return float64(s.requeued.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_steps_total",
			"ObserveStep calls processed.",
			func() float64 { return float64(s.steps.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_step_records_total",
			"Flow records handed to ObserveStep; records/steps is the live flood indicator.",
			func() float64 { return float64(s.stepRecords.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_extract_seconds_total",
			"Time inside feature extraction and normalization; over the xatu_engine_step_seconds sum it is the extract-vs-model split of a step.",
			func() float64 { return time.Duration(s.extractNanos.Load()).Seconds() }, lbl)
		reg.CounterFunc("xatu_engine_missing_total",
			"ObserveMissing calls processed.",
			func() float64 { return float64(s.missing.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_alerts_total",
			"Alerts fanned in from this shard.",
			func() float64 { return float64(s.alerts.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_lane_rows_total",
			"Detector stream-steps advanced by the model lanes.",
			func() float64 { return float64(s.laneRows.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_lane_projections_total",
			"Distinct input vectors the lanes narrowed and projected; rows/projections is the input sharing achieved.",
			func() float64 { return float64(s.laneProjections.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_lane_nonzero_columns_total",
			"Non-zero features over those distinct inputs; nonzero/(projections*features) is the live input density.",
			func() float64 { return float64(s.laneNonzero.Load()) }, lbl)
		reg.GaugeFunc("xatu_engine_queue_depth",
			"Current shard mailbox depth.",
			func() float64 { return float64(len(s.mail)) }, lbl)
		reg.GaugeFunc("xatu_engine_queue_capacity",
			"Shard mailbox capacity.",
			func() float64 { return float64(cap(s.mail)) }, lbl)
		reg.GaugeFunc("xatu_engine_queue_high_water",
			"Maximum observed shard mailbox depth.",
			func() float64 { return float64(s.highWater.Load()) }, lbl)
		reg.GaugeFunc("xatu_engine_queue_records_high_water",
			"Maximum observed flow records in the shard's queued steps. Past 256 per mailbox slot, Submit waits (Block) or sheds (ShedOldest): at that bound, ingest has waited on this shard.",
			func() float64 { return float64(s.recordsMax.Load()) }, lbl)
		reg.GaugeFunc("xatu_monitor_channels",
			"Live (customer, attack-type) detector channels on this shard.",
			func() float64 { return float64(s.channels.Load()) }, lbl)
		reg.CounterFunc("xatu_shard_restarts_total",
			"Supervised shard restarts after a recovered panic.",
			func() float64 { return float64(s.restarts.Load()) }, lbl)
		reg.CounterFunc("xatu_wal_replayed_total",
			"WAL telemetry messages replayed during shard recovery.",
			func() float64 { return float64(s.walReplayed.Load()) }, lbl)
		reg.CounterFunc("xatu_wal_dropped_total",
			"WAL entries evicted beyond the bounded replay window.",
			func() float64 { return float64(s.walDropped.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_quarantined_total",
			"Poison messages quarantined by the shard supervisor.",
			func() float64 { return float64(s.quarantined.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_lost_total",
			"Telemetry messages unrecoverable across restarts (poison + evicted WAL).",
			func() float64 { return float64(s.lost.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_bypassed_total",
			"Telemetry handled by the CDet fallback instead of the model (CDetOnly).",
			func() float64 { return float64(s.bypassed.Load()) }, lbl)
		reg.CounterFunc("xatu_engine_snapshots_total",
			"Background incremental monitor snapshots published.",
			func() float64 { return float64(s.snapshots.Load()) }, lbl)
	}
	return m
}

// StepLatency returns the engine's detection-step latency histogram, or
// nil when the engine was built without Config.Telemetry. The histogram's
// Summary gives p50/p90/p99/max for shutdown reports and benchmarks.
func (e *Engine) StepLatency() *telemetry.Histogram {
	if e.mx == nil {
		return nil
	}
	return e.mx.stepLatency
}

// ShardHealth is one shard's liveness snapshot for /healthz.
type ShardHealth struct {
	Shard          int    `json:"shard"`
	QueueLen       int    `json:"queue_len"`
	QueueCap       int    `json:"queue_cap"`
	QueueHighWater int    `json:"queue_high_water"`
	Steps          uint64 `json:"steps"`
	Channels       int    `json:"channels"`
	Restarts       uint64 `json:"restarts,omitempty"`
	Stalled        bool   `json:"stalled,omitempty"`
	Dead           bool   `json:"dead,omitempty"`
	LastPanic      string `json:"last_panic,omitempty"`
}

// EngineHealth is the engine's health report: OK while the shard fleet is
// running (not closed, no dead shard), with the degradation state and its
// cause, and per-shard queue depth so saturation is visible before it
// becomes shed load. Degraded/CDetOnly keep OK true — the engine is still
// serving, just shedding work — so liveness probes don't kill a process
// that is deliberately riding out overload.
type EngineHealth struct {
	OK     bool          `json:"ok"`
	Closed bool          `json:"closed"`
	State  string        `json:"state"`
	Cause  string        `json:"cause,omitempty"`
	Shards []ShardHealth `json:"shards"`
}

// Health snapshots shard liveness, degradation state and queue depth.
// Safe to call from any goroutine at any time, including after Close.
func (e *Engine) Health() EngineHealth {
	h := EngineHealth{
		Closed: e.closed(),
		State:  e.healthNow().String(),
		Cause:  e.HealthCause(),
		Shards: make([]ShardHealth, len(e.shards)),
	}
	dead := 0
	for i, s := range e.shards {
		sh := ShardHealth{
			Shard:          i,
			QueueLen:       len(s.mail),
			QueueCap:       cap(s.mail),
			QueueHighWater: int(s.highWater.Load()),
			Steps:          s.steps.Load(),
			Channels:       int(s.channels.Load()),
			Restarts:       s.restarts.Load(),
			Stalled:        s.stalled.Load(),
			Dead:           s.dead.Load(),
		}
		if sh.Restarts > 0 || sh.Dead {
			sh.LastPanic = s.panicDetail()
		}
		if sh.Dead {
			dead++
		}
		h.Shards[i] = sh
	}
	h.OK = !h.Closed && dead == 0
	return h
}
