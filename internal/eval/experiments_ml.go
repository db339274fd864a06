package eval

import (
	"fmt"
	"math"
	"time"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/metrics"
)

// MLContext caches the trained systems and episode traces shared by the
// machine-learning experiments (Figs 8–13, 17, 18).
type MLContext struct {
	P      *Pipeline
	Ex     *features.Extractor
	Set    *ExampleSet
	Models *Models

	ValEps, ValNegs   []Episode
	TestEps, TestNegs []Episode
	// TestUnmatched are test-period attacks the labeling CDet missed;
	// negatives under the paper's CDet-as-truth ROC.
	TestUnmatched []Episode

	xatuVal, xatuTest []Trace
	rfVal, rfTest     []Trace
	// traces of the CDet-missed attacks (ROC negatives under CDet truth)
	xatuUnmatched, rfUnmatched []Trace

	savedEvents []savedEvent // evasion-sweep undo log (Fig 13)
}

// NewMLContext trains Xatu and the RF baseline on the pipeline's training
// split and pre-computes validation/test traces for both.
func NewMLContext(p *Pipeline) (*MLContext, error) {
	c := &MLContext{P: p, Ex: p.Extractor(nil, nil)}
	var err error
	c.Set, err = p.BuildExamples(c.Ex, 0, p.TrainEnd, 1)
	if err != nil {
		return nil, err
	}
	c.Models, err = p.TrainXatu(c.Set, nil)
	if err != nil {
		return nil, err
	}
	c.ValEps = p.MatchedEpisodes(p.TrainEnd, p.ValEnd)
	c.ValNegs = p.NegativeEpisodes(2*maxI(1, len(c.ValEps)), p.TrainEnd, p.ValEnd, 2)
	c.TestEps = p.MatchedEpisodes(p.StabEnd, p.Cfg.World.Steps())
	c.TestNegs = p.NegativeEpisodes(maxI(1, len(c.TestEps)), p.StabEnd, p.Cfg.World.Steps(), 3)

	c.TestUnmatched = p.UnmatchedEpisodes(p.StabEnd, p.Cfg.World.Steps())

	c.xatuVal = p.TraceEpisodes(c.Ex, append(append([]Episode{}, c.ValEps...), c.ValNegs...), c.Models.XatuScorer)
	c.xatuTest = p.TraceEpisodes(c.Ex, append(append([]Episode{}, c.TestEps...), c.TestNegs...), c.Models.XatuScorer)
	c.xatuUnmatched = p.TraceEpisodes(c.Ex, c.TestUnmatched, c.Models.XatuScorer)

	rf, err := p.TrainRF(c.Set, 5)
	if err != nil {
		return nil, err
	}
	rfScorer := func(ddos.AttackType) Scorer {
		return RFScorer(rf, p.Cfg.Model.PoolMed, p.Cfg.Model.PoolLong)
	}
	c.rfVal = p.TraceEpisodes(c.Ex, append(append([]Episode{}, c.ValEps...), c.ValNegs...), rfScorer)
	c.rfTest = p.TraceEpisodes(c.Ex, append(append([]Episode{}, c.TestEps...), c.TestNegs...), rfScorer)
	c.rfUnmatched = p.TraceEpisodes(c.Ex, c.TestUnmatched, rfScorer)
	return c, nil
}

// SystemOutcomes is one system's evaluation at one operating point.
type SystemOutcomes struct {
	Name      string
	Threshold float64
	// Attacks holds per-attack outcomes; FPs holds benign-window outcomes.
	Attacks []metrics.AttackOutcome
	FPs     []metrics.AttackOutcome
}

// AllForOverhead merges attack and FP outcomes for overhead accounting.
func (s SystemOutcomes) AllForOverhead() []metrics.AttackOutcome {
	return append(append([]metrics.AttackOutcome{}, s.Attacks...), s.FPs...)
}

// OfType keeps the attack and FP outcomes of one attack type.
func (s SystemOutcomes) OfType(at ddos.AttackType) SystemOutcomes {
	keep := func(outs []metrics.AttackOutcome) []metrics.AttackOutcome {
		var out []metrics.AttackOutcome
		for _, o := range outs {
			if o.Type == at {
				out = append(out, o)
			}
		}
		return out
	}
	s.Attacks, s.FPs = keep(s.Attacks), keep(s.FPs)
	return s
}

// tracedSystem calibrates a traced system at the bound and splits test
// outcomes into attacks and FPs.
func (c *MLContext) tracedSystem(name string, val, test []Trace, bound float64) (SystemOutcomes, error) {
	th, err := c.P.Calibrate(val, bound)
	if err != nil {
		return SystemOutcomes{}, err
	}
	out := SystemOutcomes{Name: name, Threshold: th}
	for i := range test {
		o := c.P.OutcomeAt(&test[i], th)
		if test[i].Ep.EventIdx >= 0 {
			out.Attacks = append(out.Attacks, o)
		} else {
			out.FPs = append(out.FPs, o)
		}
	}
	return out, nil
}

// XatuAt evaluates calibrated Xatu at the overhead bound.
func (c *MLContext) XatuAt(bound float64) (SystemOutcomes, error) {
	return c.tracedSystem("xatu", c.xatuVal, c.xatuTest, bound)
}

// RFAt evaluates the calibrated RF baseline at the overhead bound.
func (c *MLContext) RFAt(bound float64) (SystemOutcomes, error) {
	return c.tracedSystem("rf", c.rfVal, c.rfTest, bound)
}

// CDet evaluates a threshold CDet ("netscout" / "fastnetmon") on the test
// episodes using its own alerts, charging its unmatched (false-positive)
// alerts as extraneous scrubbing.
func (c *MLContext) CDet(name string) SystemOutcomes {
	alerts := c.P.AlertsFor(name)
	return SystemOutcomes{
		Name:    name,
		Attacks: c.P.EvaluateCDetAlerts(alerts, c.TestEps, 0),
		FPs:     c.P.CDetFalsePositives(alerts, c.P.StabEnd, c.P.Cfg.World.Steps()),
	}
}

// missPenalty is the delay assigned to undetected attacks, the paper's
// "no detection until the end of the time series" tail.
func (c *MLContext) missPenalty() time.Duration {
	return time.Duration(c.P.Cfg.Model.Window*c.P.Cfg.Model.PoolShort) * c.P.Cfg.World.Step
}

// Headline is one system's headline numbers as fig8 reports them:
// effectiveness and detection delay (minutes) over its attacks, and
// cumulative scrubbing overhead over its attacks and false positives.
type Headline struct{ Eff, Delay, Overhead metrics.Summary }

// Headline summarizes s. With no customer to charge, overhead is 0.
func (c *MLContext) Headline(s SystemOutcomes) Headline {
	ov := metrics.Summarize(metrics.CumulativeOverheads(s.AllForOverhead()))
	if ov.N == 0 {
		ov = metrics.Summary{}
	}
	return Headline{
		Eff:      metrics.Summarize(metrics.EffectivenessSeries(s.Attacks)),
		Delay:    metrics.Summarize(metrics.DelaySeries(s.Attacks, c.missPenalty())),
		Overhead: ov,
	}
}

// summaryRow renders one system's headline metrics.
func (c *MLContext) summaryRow(s SystemOutcomes, label string) []string {
	h := c.Headline(s)
	return []string{
		label, s.Name,
		pct(h.Eff.P10), pct(h.Eff.P50), pct(h.Eff.P90),
		f1(h.Delay.P10), f1(h.Delay.P50), f1(h.Delay.P90),
		pct(h.Overhead.P25), pct(h.Overhead.P50), pct(h.Overhead.P75),
	}
}

// Fig8OverheadSweep reproduces Figure 8: effectiveness, detection delay and
// realized overhead for NetScout, FastNetMon, RF and Xatu across scrubbing
// overhead bounds. Bounds are expressed at this world's C/A scale (see
// EXPERIMENTS.md on scale).
func Fig8OverheadSweep(c *MLContext, bounds []float64) (*Result, error) {
	res := &Result{
		ID:    "fig8",
		Title: "Effectiveness / delay / overhead vs overhead bound",
		Header: []string{"bound", "system",
			"eff-p10", "eff-p50", "eff-p90",
			"delay-p10", "delay-p50", "delay-p90",
			"ov-p25", "ov-p50", "ov-p75"},
	}
	ns := c.CDet("netscout")
	fnm := c.CDet("fastnetmon")
	for _, b := range bounds {
		xatu, err := c.XatuAt(b)
		if err != nil {
			return nil, err
		}
		rf, err := c.RFAt(b)
		if err != nil {
			return nil, err
		}
		label := pct(b)
		res.Rows = append(res.Rows,
			c.summaryRow(ns, label),
			c.summaryRow(fnm, label),
			c.summaryRow(rf, label),
			c.summaryRow(xatu, label),
		)
	}
	res.Notes = append(res.Notes, "delays in minutes; negative = before anomaly start; undetected attacks take the window-tail penalty")
	return res, nil
}

// maxScore returns the highest finite score of a trace.
func maxScore(t *Trace) float64 {
	best := math.Inf(-1)
	for _, s := range t.Scores {
		if !math.IsInf(s, 0) && s > best {
			best = s
		}
	}
	return best
}

// Fig9ROC reproduces Figure 9: ROC over test windows with CDet alerts as
// ground truth. Negatives are benign windows *plus* attacks the CDet
// missed entirely — "any Xatu detection that does not align with NetScout
// is counted as a false positive" (§6.1). The last column reproduces the
// paper's observation that most of Xatu's false positives are missed
// attacks.
func Fig9ROC(c *MLContext) *Result {
	res := &Result{
		ID:     "fig9",
		Title:  "ROC (CDet labels as ground truth; CDet-missed attacks count as negatives)",
		Header: []string{"system", "AUC", "TPR@FPR10%", "TPR@FPR25%", "FPs-that-are-missed-attacks"},
	}
	for _, sys := range []struct {
		name      string
		test      []Trace
		unmatched []Trace
	}{{"xatu", c.xatuTest, c.xatuUnmatched}, {"rf", c.rfTest, c.rfUnmatched}} {
		var scores []float64
		var labels []bool
		var isMissedAttack []bool
		for i := range sys.test {
			scores = append(scores, maxScore(&sys.test[i]))
			labels = append(labels, sys.test[i].Ep.EventIdx >= 0)
			isMissedAttack = append(isMissedAttack, false)
		}
		for i := range sys.unmatched {
			scores = append(scores, maxScore(&sys.unmatched[i]))
			labels = append(labels, false) // CDet truth says "no attack"
			isMissedAttack = append(isMissedAttack, true)
		}
		roc := metrics.ROC(scores, labels)
		tprAt := func(fpr float64) float64 {
			best := 0.0
			for _, pt := range roc {
				if pt.FPR <= fpr && pt.TPR > best {
					best = pt.TPR
				}
			}
			return best
		}
		// At the median positive score, count which "false positives" are
		// actually CDet-missed attacks.
		var posScores []float64
		for i, l := range labels {
			if l {
				posScores = append(posScores, scores[i])
			}
		}
		th := metrics.Quantile(posScores, 0.5)
		fp, fpMissed := 0, 0
		for i := range scores {
			if !labels[i] && scores[i] >= th {
				fp++
				if isMissedAttack[i] {
					fpMissed++
				}
			}
		}
		missedFrac := "-"
		if fp > 0 {
			missedFrac = fmt.Sprintf("%d/%d (%s)", fpMissed, fp, pct(float64(fpMissed)/float64(fp)))
		}
		res.Rows = append(res.Rows, []string{
			sys.name, f3(metrics.AUC(roc)), pct(tprAt(0.10)), pct(tprAt(0.25)), missedFrac,
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d matched attacks, %d benign windows, %d CDet-missed attacks in the test period",
			len(c.TestEps), len(c.TestNegs), len(c.TestUnmatched)))
	return res
}

// Fig10PerAttackType reproduces Figure 10: per-type effectiveness and delay
// at a fixed overhead bound.
func Fig10PerAttackType(c *MLContext, bound float64) (*Result, error) {
	res := &Result{
		ID:     "fig10",
		Title:  fmt.Sprintf("Per-attack-type effectiveness and median delay (bound %s)", pct(bound)),
		Header: []string{"type", "n", "ns-eff", "fnm-eff", "rf-eff", "xatu-eff", "ns-delay", "xatu-delay"},
	}
	xatu, err := c.XatuAt(bound)
	if err != nil {
		return nil, err
	}
	rf, err := c.RFAt(bound)
	if err != nil {
		return nil, err
	}
	ns := c.CDet("netscout")
	fnm := c.CDet("fastnetmon")
	for at := ddos.AttackType(0); at < ddos.NumAttackTypes; at++ {
		n := len(xatu.OfType(at).Attacks)
		if n == 0 {
			continue
		}
		// medians renders a system's median effectiveness and delay on
		// this type's attacks.
		medians := func(s SystemOutcomes) (eff, delay string) {
			s = s.OfType(at)
			if len(s.Attacks) == 0 {
				return "-", "-"
			}
			h := c.Headline(s)
			return pct(h.Eff.P50), f1(h.Delay.P50)
		}
		nsEff, nsDelay := medians(ns)
		fnmEff, _ := medians(fnm)
		rfEff, _ := medians(rf)
		xEff, xDelay := medians(xatu)
		res.Rows = append(res.Rows, []string{
			at.String(), fmt.Sprintf("%d", n),
			nsEff, fnmEff, rfEff, xEff,
			nsDelay, xDelay,
		})
	}
	return res, nil
}

// Fig11Saliency reproduces Figure 11: input-gradient attribution per signal
// group over the hours before a detected attack.
func Fig11Saliency(c *MLContext) (*Result, error) {
	res := &Result{
		ID:     "fig11",
		Title:  "Input-gradient saliency per signal group before an attack",
		Header: []string{"hours-before", "V", "A1", "A2", "A3", "A4", "A5"},
	}
	// Pick the first UDP test episode (the paper's worked example is a UDP
	// flood); fall back to any episode.
	var pick *Episode
	for i := range c.TestEps {
		if c.TestEps[i].Type == ddos.UDPFlood {
			pick = &c.TestEps[i]
			break
		}
	}
	if pick == nil && len(c.TestEps) > 0 {
		pick = &c.TestEps[0]
	}
	if pick == nil {
		res.Notes = append(res.Notes, "no test episodes")
		return res, nil
	}
	model := c.Models.For(pick.Type)
	// Series ending shortly after the anomaly start; detection step is the
	// last window step.
	look := c.P.Cfg.LookbackSteps
	end := pick.AnomStart + 2
	x := c.P.SeriesFor(c.Ex, pick.CustomerIdx, end-look, end)
	detStep := model.WindowLen(len(x)) - 1
	grads, err := model.InputGradients(x, detStep)
	if err != nil {
		return nil, err
	}
	sal := core.GroupSaliency(grads, features.GroupOf)
	// Aggregate |gradient| into hour buckets before the attack.
	stepsPerHour := int(time.Hour / c.P.Cfg.World.Step)
	nHours := look / stepsPerHour
	if nHours > 12 {
		nHours = 12
	}
	groups := []string{"V", "A1", "A2", "A3", "A4", "A5"}
	for h := nHours - 1; h >= 0; h-- {
		lo := len(x) - (h+1)*stepsPerHour
		hi := len(x) - h*stepsPerHour
		if lo < 0 {
			lo = 0
		}
		row := []string{fmt.Sprintf("-%d", h)}
		for _, g := range groups {
			var sum float64
			for t := lo; t < hi; t++ {
				sum += sal[g][t]
			}
			row = append(row, fmt.Sprintf("%.2e", sum))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Notes = append(res.Notes, fmt.Sprintf("episode: %v on customer %d", pick.Type, pick.CustomerIdx))
	return res, nil
}
