package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/telemetry"
)

// TestAlertEventCarriesTrace pins the explainability contract: every
// alert leaving the engine has a populated decision trace whose survival
// trajectory ends below the threshold at the firing value, whose signal
// contributions are a distribution, and which marshals to JSON.
func TestAlertEventCarriesTrace(t *testing.T) {
	cfg := tinyMonitorConfig(t)
	cfg.OverheadBound = 0.25
	eng, err := New(Config{Monitor: cfg, Shards: 2, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	customer := testCustomers(1)[0]
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	for s := 0; s < 12; s++ {
		if err := eng.Submit(customer, t0.Add(time.Duration(s)*time.Minute), udpFlows(customer, s, t0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	var events []AlertEvent
	for ev := range eng.Alerts() {
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("fixture raised no alerts")
	}
	for _, ev := range events {
		tr := ev.Trace
		if tr == nil {
			t.Fatalf("alert %+v has no trace", ev.Alert.Sig)
		}
		if tr.Customer != customer || tr.Type != ddos.UDPFlood.String() || !tr.At.Equal(ev.At) {
			t.Fatalf("trace identity wrong: %+v", tr)
		}
		if tr.Threshold != cfg.Threshold || tr.OverheadBound != 0.25 {
			t.Fatalf("trace calibration wrong: threshold=%v bound=%v", tr.Threshold, tr.OverheadBound)
		}
		if tr.Survival >= tr.Threshold {
			t.Fatalf("trace survival %v did not cross threshold %v", tr.Survival, tr.Threshold)
		}
		if len(tr.Trajectory) == 0 || tr.Trajectory[len(tr.Trajectory)-1] != tr.Survival {
			t.Fatalf("trajectory must end at the firing survival: %v vs %v", tr.Trajectory, tr.Survival)
		}
		if len(tr.Trajectory) > traceTrajectory || len(tr.Trajectory) > tr.StreamSteps {
			t.Fatalf("trajectory length %d out of bounds (steps %d)", len(tr.Trajectory), tr.StreamSteps)
		}
		sum := 0.0
		for _, share := range tr.Contributions {
			if share < 0 {
				t.Fatalf("negative contribution share in %v", tr.Contributions)
			}
			sum += share
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("contribution shares sum to %v, want 1: %v", sum, tr.Contributions)
		}
		if tr.Contributions["V"] == 0 {
			t.Fatalf("UDP flood step has zero volumetric mass: %v", tr.Contributions)
		}
		if tr.MatchedFlows == 0 || tr.MatchedFlows > tr.TotalFlows {
			t.Fatalf("matched %d of %d flows", tr.MatchedFlows, tr.TotalFlows)
		}
		if tr.Window == 0 || tr.StreamSteps == 0 {
			t.Fatalf("missing stream context: %+v", tr)
		}
		data, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{`"survival"`, `"trajectory"`, `"contributions"`, `"threshold"`, `"overhead_bound"`} {
			if !bytes.Contains(data, []byte(key)) {
				t.Fatalf("trace JSON missing %s: %s", key, data)
			}
		}
	}
}

// TestEngineTelemetryRegistry runs an instrumented engine and checks the
// registered families render with the right values, the latency
// histograms observe every processed message, and Health reports shard
// liveness.
func TestEngineTelemetryRegistry(t *testing.T) {
	reg := telemetry.NewRegistry()
	eng, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 2, Policy: Block, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range eng.Alerts() {
		}
	}()
	customers := testCustomers(8)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	const steps = 10
	for s := 0; s < steps; s++ {
		for _, c := range customers {
			if err := eng.Submit(c, t0.Add(time.Duration(s)*time.Minute), udpFlows(c, s, t0)); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.ObserveMissing(customers[0], t0.Add(time.Duration(s)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.EndMitigation(customers[0], ddos.UDPFlood); err != nil {
		t.Fatal(err)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := eng.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	st := eng.Stats()
	if got := eng.StepLatency().Count(); got != st.Steps {
		t.Fatalf("step histogram saw %d observations, engine processed %d steps", got, st.Steps)
	}
	if eng.StepLatency().Summary().Max <= 0 {
		t.Fatal("step latency max not recorded")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE xatu_engine_steps_total counter",
		`xatu_engine_submitted_total{shard="0"}`,
		`xatu_engine_queue_depth{shard="1"} 0`,
		"# TYPE xatu_engine_step_seconds histogram",
		"xatu_engine_step_seconds_count " + strconv.FormatUint(st.Steps, 10),
		"xatu_engine_submit_to_alert_seconds_count " + strconv.FormatUint(st.Steps+st.Missing, 10),
		"xatu_engine_checkpoint_seconds_count 1",
		"xatu_engine_mitigation_ends_total 1",
		`xatu_monitor_alerts_total{type="udp-flood"}`,
		`xatu_monitor_channels{shard="0"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}

	h := eng.Health()
	if !h.OK || h.Closed || len(h.Shards) != 2 {
		t.Fatalf("health before close: %+v", h)
	}
	if h.Shards[0].QueueCap == 0 {
		t.Fatal("health missing queue capacity")
	}
	if h.Shards[0].Channels+h.Shards[1].Channels == 0 {
		t.Fatal("health missing channel counts")
	}
	eng.Close()
	if h := eng.Health(); h.OK || !h.Closed {
		t.Fatalf("health after close: %+v", h)
	}
}

// TestStatsAggregateConsistency audits the Stats roll-up: every counter
// and duration sums over shards, water marks take the shard max, and
// AvgStep guards the zero-step case.
func TestStatsAggregateConsistency(t *testing.T) {
	eng, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 4, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	if avg := eng.Stats().AvgStep(); avg != 0 {
		t.Fatalf("AvgStep with zero steps = %v, want 0", avg)
	}
	if avg := (ShardStats{}).AvgStep(); avg != 0 {
		t.Fatalf("ShardStats.AvgStep with zero steps = %v, want 0", avg)
	}
	go func() {
		for range eng.Alerts() {
		}
	}()
	customers := testCustomers(16)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	for s := 0; s < 8; s++ {
		for _, c := range customers {
			if err := eng.Submit(c, t0.Add(time.Duration(s)*time.Minute), udpFlows(c, s, t0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	defer eng.Close()

	var sub, shed, req, steps, missing, alerts uint64
	var chans, qlen, hw int
	var total, max time.Duration
	for _, ss := range st.Shards {
		sub += ss.Submitted
		shed += ss.Shed
		req += ss.Requeued
		steps += ss.Steps
		missing += ss.Missing
		alerts += ss.Alerts
		chans += ss.Channels
		qlen += ss.QueueLen
		total += ss.StepTotal
		if ss.QueueHighWater > hw {
			hw = ss.QueueHighWater
		}
		if ss.StepMax > max {
			max = ss.StepMax
		}
	}
	if st.Submitted != sub || st.Shed != shed || st.Requeued != req ||
		st.Steps != steps || st.Missing != missing || st.Alerts != alerts ||
		st.Channels != chans || st.QueueLen != qlen ||
		st.StepTotal != total || st.QueueHighWater != hw || st.StepMax != max {
		t.Fatalf("aggregate disagrees with shard roll-up:\n%+v", st)
	}
	if st.Channels != len(customers) {
		t.Fatalf("channels = %d, want one per customer (%d)", st.Channels, len(customers))
	}
	if st.AvgStep() != st.StepTotal/time.Duration(st.Steps) {
		t.Fatalf("AvgStep = %v, want %v", st.AvgStep(), st.StepTotal/time.Duration(st.Steps))
	}
	if st.StepMax < st.AvgStep() {
		t.Fatalf("StepMax %v below AvgStep %v", st.StepMax, st.AvgStep())
	}
}

// TestEngineLaneCounters pins the per-shard counters of what a monitor's
// steps consumed. The three lane counters: with two attack types under one
// Default model a customer-step is two rows sharing one projection, a
// missing step pushes each channel alone, the non-zero count is a plausible
// density. The two extractor counters: every record handed to ObserveStep
// is counted, and extraction time is positive and inside the step time.
// All totals survive the monitor swap of a Restore (a counter must not fall
// back to the new monitor's zero).
func TestEngineLaneCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := tinyMonitorConfig(t)
	cfg.Types = []ddos.AttackType{ddos.UDPFlood, ddos.TCPSYN}
	eng, err := New(Config{Monitor: cfg, Shards: 2, Policy: Block, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	go func() {
		for range eng.Alerts() {
		}
	}()
	customers := testCustomers(5)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	var steps, missing, records float64
	run := func(from, to int) {
		for s := from; s < to; s++ {
			at := t0.Add(time.Duration(s) * time.Minute)
			for _, c := range customers {
				flows := udpFlows(c, s, t0)
				if err := eng.Submit(c, at, flows); err != nil {
					t.Fatal(err)
				}
				steps++
				records += float64(len(flows))
			}
			if err := eng.ObserveMissing(customers[s%len(customers)], at); err != nil {
				t.Fatal(err)
			}
			missing++
		}
		if err := eng.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	// total sums one family over its shard labels.
	total := func(name string) float64 {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "# HELP "+name+" ") {
			t.Fatalf("no HELP line for %s", name)
		}
		sum := 0.0
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.HasPrefix(line, name+"{shard=") {
				v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
				if err != nil {
					t.Fatal(err)
				}
				sum += v
			}
		}
		return sum
	}
	lastExtract := 0.0
	check := func() {
		t.Helper()
		rows := total("xatu_engine_lane_rows_total")
		proj := total("xatu_engine_lane_projections_total")
		nonzero := total("xatu_engine_lane_nonzero_columns_total")
		if want := 2 * (steps + missing); rows != want {
			t.Fatalf("lane rows %v, want %v", rows, want)
		}
		if want := steps + missing; proj != want {
			t.Fatalf("lane projections %v, want %v (one per customer-step, missing or not: a customer's channels share the input)", proj, want)
		}
		nf := float64(cfg.Default.Cfg.NumFeatures)
		if nonzero < steps || nonzero > proj*nf {
			t.Fatalf("lane non-zero columns %v outside [%v, %v]", nonzero, steps, proj*nf)
		}
		if got := total("xatu_engine_step_records_total"); got != records {
			t.Fatalf("step records %v, want %v", got, records)
		}
		extract, stepTotal := total("xatu_engine_extract_seconds_total"), eng.Stats().StepTotal.Seconds()
		if extract <= lastExtract || extract > stepTotal {
			t.Fatalf("extract seconds %v, want above %v and within the step total %v", extract, lastExtract, stepTotal)
		}
		lastExtract = extract
	}
	run(0, 6)
	check()
	var ckpt bytes.Buffer
	if err := eng.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if err := eng.Restore(&ckpt); err != nil {
		t.Fatal(err)
	}
	run(6, 9)
	check()
}

// TestObserveStepAllocFree pins that a warmed, non-alerting ObserveStep —
// extraction with A5 included, the two extractor counters, the lane push —
// allocates nothing.
func TestObserveStepAllocFree(t *testing.T) {
	cfg := tinyMonitorConfig(t)
	cfg.Threshold = 1e-12
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	c := testCustomers(1)[0]
	flows := udpFlows(c, 2, t0)
	step := 0
	observe := func() {
		mon.ObserveStep(c, t0.Add(time.Duration(step)*time.Minute), flows)
		step++
	}
	for i := 0; i < 8; i++ {
		observe()
	}
	if allocs := testing.AllocsPerRun(100, observe); allocs != 0 {
		t.Fatalf("ObserveStep allocs/op = %v, want 0", allocs)
	}
	if records, extract := mon.ExtractStats(); records != uint64(step*len(flows)) || extract <= 0 {
		t.Fatalf("ExtractStats = %d records, %v; want %d records and a positive time", records, extract, step*len(flows))
	}
}

// TestMonitorObserveMissingAllocFree pins a warmed customer's missing step
// at zero allocations under both policies: its six channels step as one
// batch on the lane's buffers and go on sharing one input record.
func TestMonitorObserveMissingAllocFree(t *testing.T) {
	for _, policy := range []core.MissingPolicy{core.MissingZero, core.MissingCarry} {
		cfg := tinyMonitorConfig(t)
		cfg.Types = nil
		cfg.Threshold = 1e-12
		cfg.MissingPolicy = policy
		mon, err := NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
		c := testCustomers(1)[0]
		step := 0
		missing := func() {
			mon.ObserveMissing(c, t0.Add(time.Duration(step)*time.Minute))
			step++
		}
		for ; step < 8; step++ {
			mon.ObserveStep(c, t0.Add(time.Duration(step)*time.Minute), udpFlows(c, step, t0))
		}
		missing()
		if allocs := testing.AllocsPerRun(100, missing); allocs != 0 {
			t.Fatalf("policy %d: ObserveMissing allocs/op = %v, want 0", policy, allocs)
		}
	}
}
