package engine_test

import (
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/ingest"
	"github.com/xatu-go/xatu/internal/netflow"
)

// recordChaosStream pushes a deterministic multi-customer trace through
// the exporter → seeded chaos pipe → ingest pipeline chain and records the
// sealed per-step batches. The exporter runs on the record clock, so each
// step's surviving records seal into their own step.
func recordChaosStream(t *testing.T, customers []netip.Addr, steps int, chaos netflow.ChaosConfig) []engine.StepBatch {
	t.Helper()
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	var mu sync.Mutex
	sealed := make([]map[netip.Addr][]netflow.Record, steps)
	for s := range sealed {
		sealed[s] = map[netip.Addr][]netflow.Record{}
	}
	pipe, err := ingest.New(ingest.Config{
		Step:     time.Minute,
		Lateness: time.Minute,
		OnStep: func(c netip.Addr, at time.Time, _ []float64, flows []netflow.Record) {
			mu.Lock()
			defer mu.Unlock()
			sealed[int(at.Sub(t0)/time.Minute)][c] = append([]netflow.Record(nil), flows...)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	pc := netflow.NewChaosPipe(pipe, "192.0.2.1:2055", chaos)
	exp, err := netflow.NewExporterWithConfig(netflow.ExporterConfig{
		Dial:     func() (net.Conn, error) { return pc, nil },
		BootTime: t0.Add(-time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		for _, c := range customers {
			for _, r := range engine.UDPFlows(c, s, t0) {
				if err := exp.Export(r); err != nil {
					t.Fatal(err)
				}
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
	if st := pipe.Stats(); st.LostRecords == 0 || st.DupPackets == 0 {
		t.Fatalf("chaos stream shows no loss or duplication: %+v", st)
	}
	batches := make([]engine.StepBatch, steps)
	for s := range batches {
		batches[s] = engine.NewStepBatch(t0.Add(time.Duration(s)*time.Minute), sealed[s])
	}
	return batches
}

// TestEngineMonitorParityChaosStream is the tentpole acceptance test: a
// seeded chaos stream (drops, duplicates, reorders) over 32 customers is
// fed once to a single Monitor and once to a 4-shard Engine, and the two
// must produce the identical alert set (customer, type, step time).
func TestEngineMonitorParityChaosStream(t *testing.T) {
	customers := engine.TestCustomers(32)
	chaos := netflow.ChaosConfig{Seed: 42, DropRate: 0.10, DupRate: 0.05, ReorderRate: 0.05}
	batches := recordChaosStream(t, customers, 40, chaos)

	model := engine.TinyModel(t)
	ext := engine.TinyExtractor()
	mkCfg := func() engine.MonitorConfig {
		return engine.MonitorConfig{
			Default:           model,
			Extractor:         ext,
			Threshold:         1.5,
			Types:             []ddos.AttackType{ddos.UDPFlood},
			MitigationTimeout: 10 * time.Minute,
		}
	}

	want := engine.ReplayIntoMonitor(t, mkCfg(), customers, batches)
	if len(want) == 0 {
		t.Fatal("reference monitor never alerted; the fixture is broken")
	}
	for _, shards := range []int{1, 4} {
		got, st := engine.ReplayIntoEngine(t, engine.Config{Monitor: mkCfg(), Shards: shards, Policy: engine.Block}, customers, batches)
		if len(got) != len(want) {
			t.Fatalf("%d shards: %d alerts, monitor raised %d", shards, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%d shards: missing alert %+v", shards, k)
			}
		}
		if st.Shed != 0 {
			t.Fatalf("%d shards: Block policy shed %d messages", shards, st.Shed)
		}
		if st.Steps+st.Missing != st.Submitted {
			t.Fatalf("%d shards: processed %d+%d of %d submitted after drain", shards, st.Steps, st.Missing, st.Submitted)
		}
	}
}

// TestMonitorFloat32ParityChaosStream replays the seeded chaos stream of
// the engine/monitor parity test through the float64 reference
// (ReferenceAlerts), a Monitor, and a 4-shard Engine. Warm-up counting,
// signature matching and mitigation bookkeeping are precision-independent,
// so with the warm-equals-alert threshold the three alert sets must be
// identical — this pins the serving plumbing (lane construction, stream
// creation, batched dispatch, missing steps) end to end against an
// implementation that has none of it; the survival-value tolerance
// argument lives in the trained-model test at the repo root.
func TestMonitorFloat32ParityChaosStream(t *testing.T) {
	customers := engine.TestCustomers(16)
	chaos := netflow.ChaosConfig{Seed: 42, DropRate: 0.10, DupRate: 0.05, ReorderRate: 0.05}
	batches := recordChaosStream(t, customers, 40, chaos)

	cfg := engine.MonitorConfig{
		Default:           engine.TinyModel(t),
		Extractor:         engine.TinyExtractor(),
		Threshold:         1.5,
		Types:             []ddos.AttackType{ddos.UDPFlood},
		MitigationTimeout: 10 * time.Minute,
	}
	want := engine.ReferenceAlerts(cfg, customers, batches)
	if len(want) == 0 {
		t.Fatal("float64 reference never alerted; the fixture is broken")
	}
	sameAlerts := func(name string, got map[engine.AlertKey]bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s raised %d alerts, float64 reference raised %d", name, len(got), len(want))
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("%s missing alert %+v", name, k)
			}
		}
	}
	sameAlerts("monitor", engine.ReplayIntoMonitor(t, cfg, customers, batches))
	eng, st := engine.ReplayIntoEngine(t, engine.Config{Monitor: cfg, Shards: 4, Policy: engine.Block}, customers, batches)
	sameAlerts("engine", eng)
	if st.Shed != 0 {
		t.Fatalf("Block policy shed %d messages", st.Shed)
	}
}
