package xatu

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"
)

// TestChaosIngestDetectionParity is the end-to-end fault-tolerance
// acceptance test: a trained monitor watches a real test attack streamed
// through a faulty transport (10% loss, 5% duplication, 5% reordering,
// seeded) into the ingest pipeline, and must still alert within 5 steps of
// the fault-free detection time, while the pipeline's accounting separates
// upstream loss from duplication. The chaos schedule is seeded and the
// pipe delivers synchronously, so the whole test is deterministic.
func TestChaosIngestDetectionParity(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	cfg := BenchPipelineConfig(10, 7)
	cfg.Train.Epochs = 8
	p, err := NewPipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ml, err := NewMLContext(p)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ml.XatuAt(0.4)
	if err != nil {
		t.Fatal(err)
	}
	thr := 1 - sys.Threshold
	eps := p.MatchedEpisodes(p.StabEnd, cfg.World.Steps())
	if len(eps) == 0 {
		t.Fatal("no test attacks in this world; change the seed")
	}
	ep := eps[0]
	customer := p.World.Customers[ep.CustomerIdx].Addr
	step := cfg.World.Step
	first := max(ep.StreamStart, 0)

	// runEpisode streams the episode's flows through an exporter → chaos
	// pipe → ingest pipeline → monitor chain and reports the first alert
	// step. The exporter runs on the record clock, so the pipeline seals
	// the simulated steps.
	runEpisode := func(t *testing.T, chaos ChaosConfig) (alertStep int, st IngestStats, cs ChaosStats) {
		t.Helper()
		mon, err := NewMonitor(MonitorConfig{
			Models:        ml.Models.ByType,
			Default:       ml.Models.Shared,
			Extractor:     p.Extractor(nil, nil),
			Threshold:     thr,
			Types:         []AttackType{ep.Type},
			MissingPolicy: MissingCarry,
		})
		if err != nil {
			t.Fatal(err)
		}
		alertStep = -1
		var last time.Time
		pipe, err := NewIngestPipeline(IngestConfig{
			DecodeWorkers: 1,
			AggWorkers:    1,
			Step:          step,
			Lateness:      step,
			OnStep: func(_ netip.Addr, at time.Time, _ []float64, flows []Record) {
				// A fully-lost step seals nothing: keep the detector
				// branches stepping through it.
				for !last.IsZero() && last.Add(step).Before(at) {
					last = last.Add(step)
					mon.ObserveMissing(customer, last)
				}
				last = at
				if alerts := mon.ObserveStep(customer, at, flows); len(alerts) > 0 && alertStep < 0 {
					alertStep = cfg.World.StepOf(at)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		cp := NewChaosPipe(pipe, "192.0.2.1:2055", chaos)
		exp, err := NewExporterWithConfig(ExporterConfig{
			Dial:     func() (net.Conn, error) { return cp, nil },
			BootTime: cfg.World.TimeOf(first).Add(-time.Minute),
		})
		if err != nil {
			t.Fatal(err)
		}
		for s := first; s < ep.StreamEnd; s++ {
			for _, r := range p.World.FlowsAt(ep.CustomerIdx, s) {
				if err := exp.Export(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := exp.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := exp.Close(); err != nil {
			t.Fatal(err)
		}
		pipe.Close() // seals the open steps
		st = pipe.Stats()
		// Free-list hit counts depend on goroutine timing; the accounting
		// the assertions read does not.
		st.PoolHits, st.PoolMisses, st.AggPoolHits, st.AggPoolMisses = 0, 0, 0, 0
		return alertStep, st, cp.Stats()
	}

	cleanStep, cleanStats, _ := runEpisode(t, ChaosConfig{Seed: 1})
	if cleanStep < 0 {
		t.Fatal("fault-free run never alerted; detection is broken before chaos enters")
	}
	if cleanStats.LostRecords != 0 || cleanStats.DupPackets != 0 || cleanStats.DroppedLate != 0 {
		t.Fatalf("fault-free run shows faults: %+v", cleanStats)
	}

	chaosCfg := ChaosConfig{Seed: 42, DropRate: 0.10, DupRate: 0.05, ReorderRate: 0.05}
	chaosStep, chaosStats, chaosFaults := runEpisode(t, chaosCfg)
	if chaosStep < 0 {
		t.Fatalf("chaos run never alerted (fault-free alerted at step %d)", cleanStep)
	}
	if d := chaosStep - cleanStep; d > 5 || d < -5 {
		t.Fatalf("chaos detection at step %d, fault-free at %d: drift %d steps exceeds 5",
			chaosStep, cleanStep, d)
	}
	t.Logf("alert at step %d fault-free, %d under chaos; %+v", cleanStep, chaosStep, chaosStats)
	// The pipeline must separate the loss classes: sequence gaps from
	// dropped datagrams, and duplicate deliveries.
	if chaosFaults.Dropped == 0 || chaosFaults.Duplicated == 0 {
		t.Fatalf("chaos transport injected nothing: %+v", chaosFaults)
	}
	if chaosStats.LostRecords == 0 {
		t.Fatal("pipeline did not account dropped datagrams as lost records")
	}
	if chaosStats.DupPackets == 0 {
		t.Fatal("pipeline did not account duplicated datagrams")
	}

	// Seeded chaos is deterministic: an identical rerun reproduces the
	// alert step, the fault schedule, and the pipeline accounting exactly.
	againStep, againStats, againFaults := runEpisode(t, chaosCfg)
	if againStep != chaosStep || againStats != chaosStats || againFaults != chaosFaults {
		t.Fatalf("chaos rerun diverged:\n  step %d vs %d\n  stats %+v vs %+v\n  faults %+v vs %+v",
			againStep, chaosStep, againStats, chaosStats, againFaults, chaosFaults)
	}
}

// monitorFixture builds a monitor with an always-alert threshold over the
// tiny model, plus a flow that matches the UDP-flood signature.
func monitorFixture(t *testing.T, cfg MonitorConfig) (*Monitor, netip.Addr, []Record, time.Time) {
	t.Helper()
	customer := netip.MustParseAddr("23.1.1.1")
	if cfg.Extractor == nil {
		cfg.Extractor = tinyExtractor()
	}
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	flows := []Record{{
		Src: netip.MustParseAddr("11.1.1.1"), Dst: customer,
		Proto: ProtoUDP, SrcPort: 1234, DstPort: 80,
		Packets: 10, Bytes: 6000, Start: t0, End: t0.Add(time.Minute),
	}}
	return mon, customer, flows, t0
}

// TestMonitorCheckpointRestoreBitwise checkpoints a monitor mid-stream,
// restores it into a fresh monitor over the same models, and requires the
// continuation to be bitwise-identical: same alerts at the same steps, and
// byte-identical final checkpoints.
func TestMonitorCheckpointRestoreBitwise(t *testing.T) {
	m := tinyModel(t)
	ext := tinyExtractor() // Extract is pure with RecordHistory off: safe to share
	mkCfg := func() MonitorConfig {
		return MonitorConfig{
			Default: m, Extractor: ext, Threshold: 1.5,
			Types:             []AttackType{UDPFlood, TCPSYN},
			MitigationTimeout: 10 * time.Minute,
		}
	}
	orig, customer, flows, t0 := monitorFixture(t, mkCfg())
	other := netip.MustParseAddr("23.1.1.2")

	// Warm two customers for 9 steps (a deliberately unaligned point:
	// pooled branches hold partial buffers, one channel mid-mitigation).
	for i := 0; i < 9; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		orig.ObserveStep(customer, at, flows)
		orig.ObserveMissing(other, at)
	}
	orig.ObserveStep(other, t0.Add(9*time.Minute), flows)

	var ck bytes.Buffer
	if err := orig.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	restored, err := NewMonitor(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, at := range []AttackType{UDPFlood, TCPSYN} {
		for _, c := range []netip.Addr{customer, other} {
			if restored.Mitigating(c, at) != orig.Mitigating(c, at) {
				t.Fatalf("mitigation flag diverged for %v/%v", c, at)
			}
		}
	}

	// Continue both monitors through 30 more steps, including a gap window
	// and an EndMitigation, comparing alert-for-alert.
	for i := 10; i < 40; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		if i == 20 {
			orig.EndMitigation(customer, UDPFlood)
			restored.EndMitigation(customer, UDPFlood)
		}
		var a, b []Alert
		if i%7 == 3 {
			orig.ObserveMissing(customer, at)
			restored.ObserveMissing(customer, at)
		} else {
			a = orig.ObserveStep(customer, at, flows)
			b = restored.ObserveStep(customer, at, flows)
		}
		if len(a) != len(b) {
			t.Fatalf("step %d: alert count diverged: %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("step %d: alert diverged: %+v vs %+v", i, a[j], b[j])
			}
		}
	}
	var ca, cb bytes.Buffer
	if err := orig.Checkpoint(&ca); err != nil {
		t.Fatal(err)
	}
	if err := restored.Checkpoint(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatal("post-continuation monitor checkpoints differ")
	}
}

// TestMonitorRestoreRejectsCorruption exercises the restore failure paths
// and verifies a failed restore leaves the monitor's prior state intact.
func TestMonitorRestoreRejectsCorruption(t *testing.T) {
	mon, customer, flows, t0 := monitorFixture(t, MonitorConfig{
		Default: tinyModel(t), Threshold: 1.5, Types: []AttackType{UDPFlood},
	})
	for i := 0; i < 12; i++ {
		mon.ObserveStep(customer, t0.Add(time.Duration(i)*time.Minute), flows)
	}
	var ck bytes.Buffer
	if err := mon.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	good := ck.Bytes()
	steps := func(m *Monitor) int {
		return m.StreamSteps(customer, UDPFlood)
	}
	before := steps(mon)

	cases := map[string][]byte{
		"bad magic":   append([]byte("YMC1"), good[4:]...),
		"bad version": append(append([]byte{}, good[:4]...), append([]byte{99, 0}, good[6:]...)...),
		"truncated":   good[:len(good)-10],
		"empty":       nil,
	}
	for name, data := range cases {
		if err := mon.Restore(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
		if got := steps(mon); got != before {
			t.Errorf("%s: failed restore mutated state (steps %d -> %d)", name, before, got)
		}
	}

	// A monitor whose model architecture differs must reject the stream
	// payloads via the per-stream config digest.
	cfg := DefaultModelConfig()
	cfg.Hidden = 6 // tinyModel uses 4
	cfg.PoolShort, cfg.PoolMed, cfg.PoolLong = 1, 2, 4
	cfg.Window = 4
	mm, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other, _, _, _ := monitorFixture(t, MonitorConfig{
		Default: mm, Threshold: 1.5, Types: []AttackType{UDPFlood},
	})
	if err := other.Restore(bytes.NewReader(good)); err == nil {
		t.Error("architecture mismatch: restore succeeded")
	}
}
