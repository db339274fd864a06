package eval

import (
	"reflect"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/metrics"
)

// fastConfig is a deliberately small pipeline for integration tests.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.World.Days = 14
	cfg.World.Step = 2 * time.Minute
	cfg.World.NumCustomers = 10
	cfg.World.NumBotnets = 5
	cfg.World.BotsPerBotnet = 40
	cfg.World.MeanAttacksPerBotnetPerWeek = 16
	cfg.World.MeanPeakMbps = 30
	cfg.TrainFrac, cfg.ValFrac, cfg.StabFrac = 0.45, 0.30, 0.05
	cfg.LookbackSteps = 120
	cfg.Model.Hidden = 10
	cfg.Model.Window = 10
	cfg.Model.PoolShort, cfg.Model.PoolMed, cfg.Model.PoolLong = 1, 5, 15
	cfg.Train.Epochs = 14
	cfg.MinTypeExamples = 6
	cfg.A4WindowDays = 3
	return cfg
}

// sharedPipeline builds one pipeline reused across tests in this package.
var sharedP *Pipeline

func pipeline(t *testing.T) *Pipeline {
	t.Helper()
	if testing.Short() {
		t.Skip("integration pipeline skipped in -short mode")
	}
	if sharedP != nil {
		return sharedP
	}
	p, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	sharedP = p
	return p
}

func TestPipelineLabelsAndSplits(t *testing.T) {
	p := pipeline(t)
	if len(p.Alerts) < 10 {
		t.Fatalf("labeler produced only %d alerts", len(p.Alerts))
	}
	if !(0 < p.TrainEnd && p.TrainEnd < p.ValEnd && p.ValEnd < p.StabEnd && p.StabEnd < p.Cfg.World.Steps()) {
		t.Fatalf("split boundaries wrong: %d %d %d", p.TrainEnd, p.ValEnd, p.StabEnd)
	}
	// Most alerts should correspond to real simulated events.
	matched := 0
	for _, a := range p.Alerts {
		if p.matchEvent(a) >= 0 {
			matched++
		}
	}
	if frac := float64(matched) / float64(len(p.Alerts)); frac < 0.7 {
		t.Fatalf("only %.0f%% of alerts match ground-truth events", frac*100)
	}
	// History must know attackers for alerted customers.
	some := false
	for _, a := range p.Alerts[:minI(5, len(p.Alerts))] {
		if p.History.AttackerCount(a.Sig.Victim, p.Cfg.World.TimeOf(p.Cfg.World.Steps())) > 0 {
			some = true
		}
	}
	if !some {
		t.Fatal("history registry has no attackers")
	}
}

func TestPipelineExamples(t *testing.T) {
	p := pipeline(t)
	ex := p.Extractor(nil, nil)
	set, err := p.BuildExamples(ex, 0, p.TrainEnd, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.TotalPositives() < 5 {
		t.Fatalf("too few positives: %d", set.TotalPositives())
	}
	if len(set.Negatives) < set.TotalPositives()/2 {
		t.Fatalf("too few negatives: %d vs %d positives", len(set.Negatives), set.TotalPositives())
	}
	for at, exs := range set.Positives {
		for _, e := range exs {
			if len(e.X) != p.Cfg.LookbackSteps || len(e.X[0]) != 273 {
				t.Fatalf("%v: example shape %dx%d", at, len(e.X), len(e.X[0]))
			}
			if !e.Attack {
				t.Fatal("positive not labeled attack")
			}
		}
	}
}

// TestEndToEndXatuBoostsCDet is the headline integration test: train Xatu
// on CDet labels, calibrate under an overhead bound, and verify it detects
// earlier and scrubs more anomalous traffic than the CDet it boosts.
func TestEndToEndXatuBoostsCDet(t *testing.T) {
	p := pipeline(t)
	ex := p.Extractor(nil, nil)
	set, err := p.BuildExamples(ex, 0, p.TrainEnd, 1)
	if err != nil {
		t.Fatal(err)
	}
	models, err := p.TrainXatu(set, nil)
	if err != nil {
		t.Fatal(err)
	}

	valEps := p.MatchedEpisodes(p.TrainEnd, p.ValEnd)
	valNegs := p.NegativeEpisodes(2*len(valEps), p.TrainEnd, p.ValEnd, 2)
	valTraces := p.TraceEpisodes(ex, append(valEps, valNegs...), models.XatuScorer)
	th, err := p.Calibrate(valTraces, 0.40)
	if err != nil {
		t.Fatal(err)
	}

	testEps := p.MatchedEpisodes(p.StabEnd, p.Cfg.World.Steps())
	if len(testEps) < 5 {
		t.Fatalf("too few test episodes: %d", len(testEps))
	}
	xatuTraces := p.TraceEpisodes(ex, testEps, models.XatuScorer)
	xatuOuts := p.OutcomesAt(xatuTraces, th)
	cdetOuts := p.EvaluateCDetAlerts(p.Alerts, testEps, 0)

	xEff := metrics.Quantile(metrics.EffectivenessSeries(xatuOuts), 0.5)
	cEff := metrics.Quantile(metrics.EffectivenessSeries(cdetOuts), 0.5)
	xDelay := metrics.Quantile(metrics.DelaySeries(xatuOuts, 30*time.Minute), 0.5)
	cDelay := metrics.Quantile(metrics.DelaySeries(cdetOuts, 30*time.Minute), 0.5)
	t.Logf("median effectiveness: xatu=%.2f cdet=%.2f; median delay (min): xatu=%.1f cdet=%.1f; threshold=%.4f",
		xEff, cEff, xDelay, cDelay, th)

	if !(xEff > cEff) {
		t.Errorf("Xatu effectiveness %.3f not above CDet %.3f", xEff, cEff)
	}
	if !(xDelay < cDelay) {
		t.Errorf("Xatu delay %.1f not below CDet %.1f", xDelay, cDelay)
	}
	// Overhead stays bounded-ish on test data (the bound is enforced on
	// validation; test drift is allowed limited slack).
	ov := metrics.Quantile(metrics.CumulativeOverheads(xatuOuts), 0.75)
	if ov > 0.5 {
		t.Errorf("overhead blew up: %.3f", ov)
	}
}

func TestTraceDeterminism(t *testing.T) {
	p := pipeline(t)
	ex := p.Extractor(nil, nil)
	eps := p.Episodes(p.StabEnd, p.Cfg.World.Steps())
	if len(eps) == 0 {
		t.Skip("no test episodes")
	}
	eps = eps[:1]
	set, err := p.BuildExamples(ex, 0, p.TrainEnd, 1)
	if err != nil {
		t.Fatal(err)
	}
	models, err := p.TrainXatu(set, nil)
	if err != nil {
		t.Fatal(err)
	}
	t1 := p.TraceEpisodes(ex, eps, models.XatuScorer)
	t2 := p.TraceEpisodes(ex, eps, models.XatuScorer)
	for i := range t1[0].Scores {
		if t1[0].Scores[i] != t2[0].Scores[i] {
			t.Fatal("traces must be deterministic")
		}
	}
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestLabelerAlertsDeterministic: each baseline labeler returns the same
// alert slice on every run, in (detection time, victim, type) order.
func TestLabelerAlertsDeterministic(t *testing.T) {
	p := pipeline(t)
	for _, name := range []string{"fastnetmon", "entropy"} {
		a, b := p.runLabeler(name), p.runLabeler(name)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two runs returned different alert slices", name)
		}
		for i := 1; i < len(a); i++ {
			x, y := a[i-1], a[i]
			if x.DetectedAt.After(y.DetectedAt) || x.DetectedAt.Equal(y.DetectedAt) &&
				(x.Sig.Victim.Compare(y.Sig.Victim) > 0 || x.Sig.Victim == y.Sig.Victim && x.Sig.Type >= y.Sig.Type) {
				t.Fatalf("%s: alert %d out of order", name, i)
			}
		}
	}
}
