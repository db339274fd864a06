package cdet

import (
	"math"
	"net/netip"
	"sort"
	"time"

	"github.com/xatu-go/xatu/internal/ddos"
)

// Params tunes a threshold detector. Thresholds are expressed in Mbps of
// traffic matching an attack-type signature.
type Params struct {
	Name string
	// AbsFloorMbps is the minimum rate that can ever trigger an alert
	// ("forced alert thresholds" — commercial boxes refuse to alert on
	// traffic too small to matter).
	AbsFloorMbps float64
	// Multiplier scales the learned baseline: alert candidate when
	// rate > max(AbsFloorMbps, Multiplier·μ + SigmaK·σ).
	Multiplier float64
	// SigmaK adds σ-scaled slack on top of the baseline.
	SigmaK float64
	// SustainSteps is how many consecutive over-threshold steps are needed
	// before alerting — the conservatism that causes late detection (§2.3).
	SustainSteps int
	// ReleaseSteps is how many consecutive calm steps end the mitigation.
	ReleaseSteps int
	// EWMAAlpha is the baseline learning rate.
	EWMAAlpha float64
}

// NetScoutParams mimics the conservative commercial appliance: high
// absolute floor, long sustain requirement. Median detection delay on the
// paper's traffic was 11.5 minutes.
func NetScoutParams(step time.Duration) Params {
	return Params{
		Name:         "netscout",
		AbsFloorMbps: 4,
		Multiplier:   3.5,
		SigmaK:       6,
		SustainSteps: maxInt(1, int(5*time.Minute/step)),
		ReleaseSteps: maxInt(1, int(3*time.Minute/step)),
		EWMAAlpha:    0.02,
	}
}

// FastNetMonParams mimics the open-source detector with "the best dynamic
// thresholds in production" [84]: lower floor and shorter sustain, hence
// faster but less conservative (median delay ~5 min in the paper).
func FastNetMonParams(step time.Duration) Params {
	return Params{
		Name:         "fastnetmon",
		AbsFloorMbps: 2.5,
		Multiplier:   3,
		SigmaK:       5,
		SustainSteps: maxInt(1, int(2*time.Minute/step)),
		ReleaseSteps: maxInt(1, int(2*time.Minute/step)),
		EWMAAlpha:    0.05,
	}
}

// chanState is the detector state for one (customer, attack type) channel.
type chanState struct {
	mean, varEst float64
	warm         int
	over         int // consecutive over-threshold steps
	calm         int // consecutive calm steps while mitigating
	active       bool
	activeAlert  ddos.Alert
	peakMbps     float64
}

// Detector is a streaming threshold detector over per-signature traffic
// rates. It is not safe for concurrent use; run one per stream.
type Detector struct {
	P    Params
	step time.Duration
	// states holds each victim's channels, indexed by attack type.
	states map[netip.Addr]*[ddos.NumAttackTypes]chanState
	done   []ddos.Alert
}

// New returns a Detector with the given parameters operating at the given
// step resolution.
func New(p Params, step time.Duration) *Detector {
	return &Detector{P: p, step: step, states: make(map[netip.Addr]*[ddos.NumAttackTypes]chanState)}
}

// NewNetScout is a convenience constructor.
func NewNetScout(step time.Duration) *Detector { return New(NetScoutParams(step), step) }

// NewFastNetMon is a convenience constructor.
func NewFastNetMon(step time.Duration) *Detector { return New(FastNetMonParams(step), step) }

// Observe feeds one step of per-attack-type matching byte counts for one
// customer and returns any alerts raised at this step (detection time set,
// mitigation end pending).
func (d *Detector) Observe(victim netip.Addr, at time.Time, perTypeBytes [ddos.NumAttackTypes]float64) []ddos.Alert {
	var raised []ddos.Alert
	stepSec := d.step.Seconds()
	chans := d.states[victim]
	if chans == nil {
		chans = new([ddos.NumAttackTypes]chanState)
		d.states[victim] = chans
	}
	for t := ddos.AttackType(0); t < ddos.NumAttackTypes; t++ {
		mbps := perTypeBytes[t] * 8 / 1e6 / stepSec
		st := &chans[t]
		if st.active {
			d.observeActive(st, at, mbps)
			continue
		}
		threshold := math.Max(d.P.AbsFloorMbps, d.P.Multiplier*st.mean+d.P.SigmaK*math.Sqrt(st.varEst))
		if st.warm < 10 {
			// Warm-up: learn only, never alert.
			st.warm++
			d.learn(st, mbps)
			continue
		}
		if mbps > threshold {
			st.over++
			if st.over >= d.P.SustainSteps {
				st.active = true
				st.over = 0
				st.calm = 0
				st.peakMbps = mbps
				st.activeAlert = ddos.Alert{
					Sig:        ddos.SignatureFor(t, victim),
					DetectedAt: at,
					Source:     d.P.Name,
				}
				raised = append(raised, st.activeAlert)
			}
			// While over threshold the baseline is frozen so the attack does
			// not poison it.
			continue
		}
		st.over = 0
		d.learn(st, mbps)
	}
	return raised
}

func (d *Detector) observeActive(st *chanState, at time.Time, mbps float64) {
	if mbps > st.peakMbps {
		st.peakMbps = mbps
	}
	release := math.Max(d.P.AbsFloorMbps*0.5, d.P.Multiplier*st.mean*0.8)
	if mbps < release {
		st.calm++
		if st.calm >= d.P.ReleaseSteps {
			d.finishAlert(st, at)
		}
		return
	}
	st.calm = 0
}

func (d *Detector) finishAlert(st *chanState, at time.Time) {
	st.active = false
	st.activeAlert.MitigatedAt = at
	st.activeAlert.Severity = ddos.SeverityFromPeakMbps(st.peakMbps)
	d.done = append(d.done, st.activeAlert)
	st.peakMbps = 0
	st.calm = 0
}

func (d *Detector) learn(st *chanState, mbps float64) {
	a := d.P.EWMAAlpha
	diff := mbps - st.mean
	st.mean += a * diff
	st.varEst = (1 - a) * (st.varEst + a*diff*diff)
}

// Finish closes any still-active mitigations at the given end time and
// returns all completed alerts, ordered by completion; the mitigations it
// closes complete in (victim, attack type) order.
func (d *Detector) Finish(at time.Time) []ddos.Alert {
	victims := make([]netip.Addr, 0, len(d.states))
	for v := range d.states {
		victims = append(victims, v)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].Less(victims[j]) })
	for _, v := range victims {
		chans := d.states[v]
		for t := range chans {
			if chans[t].active {
				d.finishAlert(&chans[t], at)
			}
		}
	}
	return d.done
}

// Alerts returns the completed alerts so far without closing active ones.
func (d *Detector) Alerts() []ddos.Alert { return d.done }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
