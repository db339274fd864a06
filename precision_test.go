package xatu

import (
	"testing"
	"time"
)

// TestPrecisionAlertParityTrained is the float32 serving acceptance test:
// a trained system watches the same held-out test attack once as the
// float64 oracle — a sequential Stream pushed the same normalised features,
// with the monitor's firing rule restated in the test — and once through a
// Monitor, which serves with the quantized float32 panel kernels, and the
// two must alert within 5 steps of each other — the same behavioral
// tolerance the chaos-transport test holds detection to. Float32 rounding
// perturbs survival values by parts in 1e-3 near the threshold, which can
// only move an alert by the handful of steps where S_t grazes the
// threshold, never create or suppress a detection of a real attack.
func TestPrecisionAlertParityTrained(t *testing.T) {
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

	// Both runs stream the episode's flows over a fault-free transport;
	// the only variable is who steps the model. observe returns whether the
	// step alerted; missing advances a step with no telemetry.
	runEpisode := func(observe func(at time.Time, flows []Record) bool, missing func(at time.Time)) int {
		for s := max(ep.StreamStart, 0); s < ep.StreamEnd; s++ {
			flows := p.World.FlowsAt(ep.CustomerIdx, s)
			at := cfg.World.TimeOf(s)
			if len(flows) == 0 {
				missing(at)
			} else if observe(at, flows) {
				return s
			}
		}
		return -1
	}
	// The oracle: one float64 Stream, no lane, no batching, no float32.
	oracleEpisode := func() int {
		stream := NewStream(ml.Models.For(ep.Type))
		ext := p.Extractor(nil, nil)
		sig := SignatureFor(ep.Type, customer)
		return runEpisode(func(at time.Time, flows []Record) bool {
			feat := ext.Extract(customer, at, flows)
			NormalizeFeatures(feat)
			surv := stream.Push(feat)
			matched := false
			for _, r := range flows {
				matched = matched || sig.Matches(r)
			}
			return stream.Warm() && surv < thr && matched
		}, func(time.Time) { stream.PushMissing(MissingCarry) })
	}
	monitorEpisode := func() int {
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
		return runEpisode(func(at time.Time, flows []Record) bool {
			return len(mon.ObserveStep(customer, at, flows)) > 0
		}, func(at time.Time) { mon.ObserveMissing(customer, at) })
	}

	step64 := oracleEpisode()
	if step64 < 0 {
		t.Fatal("float64 oracle never alerted; detection is broken before precision enters")
	}
	step32 := monitorEpisode()
	if step32 < 0 {
		t.Fatalf("float32 run never alerted (float64 alerted at step %d)", step64)
	}
	if d := step32 - step64; d > 5 || d < -5 {
		t.Fatalf("float32 detection at step %d, float64 at %d: drift %d steps exceeds 5",
			step32, step64, d)
	}

	// Float32 serving is deterministic: a rerun reproduces the alert step.
	if again := monitorEpisode(); again != step32 {
		t.Fatalf("float32 rerun alerted at step %d, first run at %d", again, step32)
	}
}
