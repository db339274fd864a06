// Package eval wires every substrate into the paper's evaluation pipeline
// (§5–§6): generate the ISP world, label it with a CDet, populate the
// attack-history registries, extract multi-timescale feature series, train
// Xatu (and the RF baseline), calibrate alert thresholds under a scrubbing
// overhead bound on validation data, and replay the test period through the
// streaming detectors to measure effectiveness, overhead and delay. Each
// figure/table of the paper has a driver in experiments*.go.
package eval

import (
	"fmt"
	"sort"
	"time"

	"github.com/xatu-go/xatu/internal/attackhist"
	"github.com/xatu-go/xatu/internal/cdet"
	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/simnet"
)

// Config parameterizes a pipeline run.
type Config struct {
	World simnet.Config
	// Split fractions over the horizon (paper: 50/20/30 days, with the
	// first 10 test days used for stabilization).
	TrainFrac, ValFrac, StabFrac float64
	// Labeler produces the ground-truth alerts ("netscout" or "fastnetmon").
	Labeler string
	// LookbackSteps is the feature-series length T per example.
	LookbackSteps int
	// Model is the Xatu configuration (NumFeatures is forced to 273).
	Model core.Config
	// Train are the model-fitting options.
	Train core.TrainOptions
	// A4WindowDays / A5WindowHours bound the history features.
	A4WindowDays  int
	A5WindowHours int
	// MinTypeExamples is the minimum number of labeled attacks a type needs
	// for its own model; rarer types share a model trained on all types
	// (scaled-data adaptation, documented in DESIGN.md).
	MinTypeExamples int
}

// DefaultConfig returns a laptop-scale pipeline configuration.
func DefaultConfig() Config {
	w := simnet.DefaultConfig()
	w.Step = 2 * time.Minute
	w.Days = 20
	w.NumCustomers = 16
	w.NumBotnets = 5
	w.BotsPerBotnet = 60
	w.MeanAttacksPerBotnetPerWeek = 10

	m := core.DefaultConfig(features.NumFeatures)
	m.Hidden = 12
	m.PoolShort, m.PoolMed, m.PoolLong = 1, 5, 30 // ×2min = 2/10/60 minutes
	m.Window = 15                                 // 30 minutes of detection window

	return Config{
		World:     w,
		TrainFrac: 0.5, ValFrac: 0.2, StabFrac: 0.1,
		Labeler:       "netscout",
		LookbackSteps: 360, // half a simulated day
		Model:         m,
		// Workers is pinned to 1 so the committed experiment numbers are
		// reproducible across machines: the worker count changes how
		// gradients are partitioned and reduced, and while every (seed,
		// workers) pair is individually deterministic, different worker
		// counts give different (equally valid) float summation orders.
		Train:           core.TrainOptions{Epochs: 6, BatchSize: 12, Seed: 1, Workers: 1},
		A4WindowDays:    10,
		A5WindowHours:   24,
		MinTypeExamples: 8,
	}
}

// Pipeline holds everything shared between experiments on one world.
type Pipeline struct {
	Cfg     Config
	World   *simnet.World
	History *attackhist.Registry
	// Alerts are the labeler's alerts over the full horizon, time-ordered.
	Alerts []ddos.Alert
	// Split boundaries in steps.
	TrainEnd, ValEnd, StabEnd int
}

// New builds the world, runs the labeling CDet over the whole horizon, and
// populates the attack-history registry from its alerts.
func New(cfg Config) (*Pipeline, error) {
	cfg.Model.NumFeatures = features.NumFeatures
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	w, err := simnet.NewWorld(cfg.World)
	if err != nil {
		return nil, err
	}
	p := &Pipeline{Cfg: cfg, World: w, History: attackhist.NewRegistry()}
	steps := cfg.World.Steps()
	p.TrainEnd = int(float64(steps) * cfg.TrainFrac)
	p.ValEnd = p.TrainEnd + int(float64(steps)*cfg.ValFrac)
	p.StabEnd = p.ValEnd + int(float64(steps)*cfg.StabFrac)
	if p.StabEnd >= steps {
		return nil, fmt.Errorf("eval: split fractions leave no test data")
	}
	p.Alerts = p.runLabeler(cfg.Labeler)
	p.populateHistory()
	return p, nil
}

// runLabeler streams the whole world through the chosen CDet
// ("netscout", "fastnetmon", or the statistical "entropy" baseline).
func (p *Pipeline) runLabeler(name string) []ddos.Alert {
	if name == "entropy" {
		return p.runEntropyDetector()
	}
	var det *cdet.Detector
	switch name {
	case "fastnetmon":
		det = cdet.NewFastNetMon(p.Cfg.World.Step)
	default:
		det = cdet.NewNetScout(p.Cfg.World.Step)
	}
	steps := p.Cfg.World.Steps()
	for s := 0; s < steps; s++ {
		at := p.Cfg.World.TimeOf(s)
		for ci := range p.World.Customers {
			perType, _ := p.World.SignatureBytes(ci, s)
			det.Observe(p.World.Customers[ci].Addr, at, perType)
		}
	}
	alerts := det.Finish(p.Cfg.World.TimeOf(steps))
	sortAlerts(alerts)
	return alerts
}

// runEntropyDetector streams the world through the entropy baseline, which
// needs raw flow records rather than per-signature byte counts.
func (p *Pipeline) runEntropyDetector() []ddos.Alert {
	det := cdet.NewEntropyDetector(p.Cfg.World.Step)
	steps := p.Cfg.World.Steps()
	for s := 0; s < steps; s++ {
		at := p.Cfg.World.TimeOf(s)
		for ci := range p.World.Customers {
			det.Observe(p.World.Customers[ci].Addr, at, p.World.FlowsAt(ci, s))
		}
	}
	alerts := det.Finish(p.Cfg.World.TimeOf(steps))
	sortAlerts(alerts)
	return alerts
}

// sortAlerts orders baseline alerts by detection time, then victim, then
// attack type: a total key (a detector holds one open alert per victim and
// type), so two runs over the same world give equal slices.
func sortAlerts(alerts []ddos.Alert) {
	sort.SliceStable(alerts, func(i, j int) bool {
		a, b := &alerts[i], &alerts[j]
		if !a.DetectedAt.Equal(b.DetectedAt) {
			return a.DetectedAt.Before(b.DetectedAt)
		}
		if c := a.Sig.Victim.Compare(b.Sig.Victim); c != 0 {
			return c < 0
		}
		return a.Sig.Type < b.Sig.Type
	})
}

// populateHistory records every labeler alert and its attack sources into
// the (time-aware) history registry.
func (p *Pipeline) populateHistory() {
	for _, a := range p.Alerts {
		p.History.RecordAlert(a)
		p.recordAttackers(p.History, a)
	}
}

// recordAttackers registers the sources of traffic matching the alert
// signature between detection and mitigation end (§5.1, A2).
func (p *Pipeline) recordAttackers(reg *attackhist.Registry, a ddos.Alert) {
	ci := p.World.CustomerIndex(a.Sig.Victim)
	if ci < 0 {
		return
	}
	from := p.Cfg.World.StepOf(a.DetectedAt)
	to := p.Cfg.World.StepOf(a.MitigatedAt)
	if to >= p.Cfg.World.Steps() {
		to = p.Cfg.World.Steps() - 1
	}
	for s := from; s <= to; s++ {
		at := p.Cfg.World.TimeOf(s)
		for _, r := range p.World.FlowsAt(ci, s) {
			if a.Sig.Matches(r) {
				reg.RecordAttacker(a.Sig.Victim, r.Src, at)
			}
		}
	}
}

// Extractor returns a feature extractor over the pipeline's registries,
// optionally with disabled signal groups (§6.3 ablations) and a custom
// history registry (for autoregressive evaluation).
func (p *Pipeline) Extractor(disable map[string]bool, hist *attackhist.Registry) *features.Extractor {
	if hist == nil {
		hist = p.History
	}
	return &features.Extractor{
		Blocklists: p.World.Blocklists,
		History:    hist,
		Spoof:      p.World.Spoof,
		Geo:        simnet.GeoOf,
		A4Window:   time.Duration(p.Cfg.A4WindowDays) * 24 * time.Hour,
		A5Window:   time.Duration(p.Cfg.A5WindowHours) * time.Hour,
		Disable:    disable,
	}
}

// SeriesFor extracts the normalized feature series for customer ci over
// steps [from, to). Steps outside the horizon yield zero vectors.
func (p *Pipeline) SeriesFor(ex *features.Extractor, ci, from, to int) [][]float64 {
	out := make([][]float64, 0, to-from)
	addr := p.World.Customers[ci].Addr
	for s := from; s < to; s++ {
		if s < 0 || s >= p.Cfg.World.Steps() {
			out = append(out, make([]float64, features.NumFeatures))
			continue
		}
		v := ex.Extract(addr, p.Cfg.World.TimeOf(s), p.World.FlowsAt(ci, s))
		features.Normalize(v)
		out = append(out, v)
	}
	return out
}

// alertStep returns the step index of an alert's detection.
func (p *Pipeline) alertStep(a ddos.Alert) int { return p.Cfg.World.StepOf(a.DetectedAt) }

// matchEvent finds the simulated ground-truth event corresponding to an
// alert: same victim and type, detection inside (or just after) the
// anomalous window. Returns -1 when the alert is a false positive.
func (p *Pipeline) matchEvent(a ddos.Alert) int {
	ci := p.World.CustomerIndex(a.Sig.Victim)
	if ci < 0 {
		return -1
	}
	det := p.alertStep(a)
	slack := int(10 * time.Minute / p.Cfg.World.Step)
	for _, ei := range p.World.EventsFor(ci) {
		ev := &p.World.Events[ei]
		if ev.Type != a.Sig.Type {
			continue
		}
		if det >= ev.StartStep && det < ev.EndStep()+slack {
			return ei
		}
	}
	return -1
}
