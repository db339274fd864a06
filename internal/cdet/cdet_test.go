package cdet

import (
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/ddos"
)

func TestCusumFindsStepChange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series := make([]float64, 300)
	for i := range series {
		series[i] = 100 + 5*rng.NormFloat64()
	}
	// Anomaly starts at 200: ramps up.
	for i := 200; i < 300; i++ {
		series[i] = 100 + 5*rng.NormFloat64() + 30*float64(i-199)
	}
	onset, ok := AnomalyStart(series, 250, DefaultCusum(1))
	if !ok {
		t.Fatal("CUSUM found no change")
	}
	if onset < 195 || onset > 206 {
		t.Fatalf("onset = %d, want ≈200", onset)
	}
}

func TestCusumSilentOnStationaryNoise(t *testing.T) {
	// Same parameters, no change anywhere: must report no crossing
	// (DESIGN.md invariant: silent on stationary noise).
	rng := rand.New(rand.NewSource(2))
	series := make([]float64, 300)
	for i := range series {
		series[i] = 100 + 5*rng.NormFloat64()
	}
	if _, ok := AnomalyStart(series, 250, DefaultCusum(1)); ok {
		t.Fatal("false change detected on stationary noise")
	}
}

func TestCusumAggressiveParamCatchesSmallShift(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	series := make([]float64, 300)
	for i := range series {
		series[i] = 100 + 5*rng.NormFloat64()
	}
	for i := 220; i < 300; i++ {
		series[i] += 8 // small sustained shift ≈ 1.6σ
	}
	// NumStd=0.5 (the paper's TCP setting) must catch it...
	if _, ok := AnomalyStart(series, 280, DefaultCusum(0.5)); !ok {
		t.Fatal("aggressive CUSUM missed the small shift")
	}
	// ...while NumStd=3 should not.
	if _, ok := AnomalyStart(series, 280, DefaultCusum(3)); ok {
		t.Fatal("conservative CUSUM should ignore a 1.6σ shift")
	}
}

func TestCusumEdgeCases(t *testing.T) {
	if _, ok := AnomalyStart(nil, 0, DefaultCusum(1)); ok {
		t.Fatal("empty series")
	}
	if _, ok := AnomalyStart([]float64{1, 2}, 5, DefaultCusum(1)); ok {
		t.Fatal("detect index out of range")
	}
	// Flat-zero baseline with a jump must still work (σ guard).
	series := make([]float64, 200)
	for i := 150; i < 200; i++ {
		series[i] = 1000
	}
	onset, ok := AnomalyStart(series, 190, DefaultCusum(1))
	if !ok || onset < 148 || onset > 152 {
		t.Fatalf("flat baseline: onset=%d ok=%v", onset, ok)
	}
}

// synth builds a per-step byte series in Mbps translated to bytes.
func bytesOf(mbps float64, step time.Duration) float64 {
	return mbps * 1e6 / 8 * step.Seconds()
}

func runDetector(d *Detector, victim netip.Addr, at ddos.AttackType, mbpsSeries []float64, step time.Duration) []ddos.Alert {
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	for i, m := range mbpsSeries {
		var per [ddos.NumAttackTypes]float64
		per[at] = bytesOf(m, step)
		d.Observe(victim, t0.Add(time.Duration(i)*step), per)
	}
	return d.Finish(t0.Add(time.Duration(len(mbpsSeries)) * step))
}

func attackSeries(rng *rand.Rand, base float64, attackStart, attackLen int, peak float64, total int) []float64 {
	s := make([]float64, total)
	for i := range s {
		s[i] = base * (1 + 0.1*rng.NormFloat64())
		if i >= attackStart && i < attackStart+attackLen {
			ramp := peak * math.Pow(2, float64(i-attackStart)) / math.Pow(2, 5)
			s[i] += math.Min(peak, ramp)
		}
	}
	return s
}

func TestNetScoutDetectsSustainedAttackLate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	victim := netip.MustParseAddr("23.1.1.1")
	series := attackSeries(rng, 2, 100, 40, 20, 200)
	d := NewNetScout(time.Minute)
	alerts := runDetector(d, victim, ddos.UDPFlood, series, time.Minute)
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1", len(alerts))
	}
	a := alerts[0]
	if a.Sig.Type != ddos.UDPFlood || a.Sig.Victim != victim || a.Source != "netscout" {
		t.Fatalf("alert = %+v", a)
	}
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	delay := a.DetectedAt.Sub(t0.Add(100 * time.Minute))
	if delay < 3*time.Minute || delay > 15*time.Minute {
		t.Fatalf("NetScout delay = %v, want late-but-bounded", delay)
	}
	if a.MitigatedAt.Before(a.DetectedAt) {
		t.Fatal("mitigation must end after detection")
	}
	if a.Severity != ddos.SeverityMedium {
		t.Fatalf("severity = %v for a 20 Mbps peak", a.Severity)
	}
}

func TestFastNetMonFasterThanNetScout(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	victim := netip.MustParseAddr("23.1.1.1")
	series := attackSeries(rng, 2, 100, 40, 25, 200)
	ns := runDetector(NewNetScout(time.Minute), victim, ddos.TCPACK, series, time.Minute)
	fn := runDetector(NewFastNetMon(time.Minute), victim, ddos.TCPACK, series, time.Minute)
	if len(ns) == 0 || len(fn) == 0 {
		t.Fatalf("detections: netscout=%d fnm=%d", len(ns), len(fn))
	}
	if !fn[0].DetectedAt.Before(ns[0].DetectedAt) {
		t.Fatalf("FastNetMon (%v) must detect before NetScout (%v)", fn[0].DetectedAt, ns[0].DetectedAt)
	}
}

func TestDetectorMissesVeryShortAttack(t *testing.T) {
	// §2.3: short attacks end before the conservative sustain window.
	rng := rand.New(rand.NewSource(9))
	victim := netip.MustParseAddr("23.1.1.1")
	series := attackSeries(rng, 2, 100, 3, 25, 200) // 3-minute attack
	alerts := runDetector(NewNetScout(time.Minute), victim, ddos.ICMPFlood, series, time.Minute)
	if len(alerts) != 0 {
		t.Fatalf("NetScout should miss a 3-minute attack, got %d alerts", len(alerts))
	}
}

func TestDetectorIgnoresBenignNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	victim := netip.MustParseAddr("23.1.1.1")
	series := make([]float64, 500)
	for i := range series {
		series[i] = 3 * (1 + 0.25*rng.NormFloat64())
	}
	alerts := runDetector(NewNetScout(time.Minute), victim, ddos.UDPFlood, series, time.Minute)
	if len(alerts) != 0 {
		t.Fatalf("false positives on noise: %d", len(alerts))
	}
}

func TestDetectorBaselineFrozenDuringAttack(t *testing.T) {
	// A long attack must not teach the detector that attack volume is
	// normal: after mitigation, a second identical attack must be detected
	// again.
	rng := rand.New(rand.NewSource(11))
	victim := netip.MustParseAddr("23.1.1.1")
	series := attackSeries(rng, 2, 100, 60, 30, 400)
	for i := 280; i < 340; i++ {
		series[i] += math.Min(30, 30*math.Pow(2, float64(i-280))/32)
	}
	alerts := runDetector(NewNetScout(time.Minute), victim, ddos.UDPFlood, series, time.Minute)
	if len(alerts) != 2 {
		t.Fatalf("alerts = %d, want 2 (repeat attack must be re-detected)", len(alerts))
	}
}

func TestDetectorSeparateChannels(t *testing.T) {
	// An attack on one customer/type must not alert another.
	rng := rand.New(rand.NewSource(12))
	v1 := netip.MustParseAddr("23.1.1.1")
	v2 := netip.MustParseAddr("23.1.1.2")
	d := NewFastNetMon(time.Minute)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	series := attackSeries(rng, 2, 100, 30, 25, 200)
	for i, m := range series {
		var p1, p2 [ddos.NumAttackTypes]float64
		p1[ddos.UDPFlood] = bytesOf(m, time.Minute)
		p2[ddos.UDPFlood] = bytesOf(2, time.Minute)
		d.Observe(v1, t0.Add(time.Duration(i)*time.Minute), p1)
		d.Observe(v2, t0.Add(time.Duration(i)*time.Minute), p2)
	}
	alerts := d.Finish(t0.Add(300 * time.Minute))
	for _, a := range alerts {
		if a.Sig.Victim != v1 {
			t.Fatalf("spurious alert on %v", a.Sig.Victim)
		}
	}
	if len(alerts) == 0 {
		t.Fatal("attack on v1 not detected")
	}
}

func TestFinishClosesActiveAlerts(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	victim := netip.MustParseAddr("23.1.1.1")
	// Attack continues until the end of the series.
	series := attackSeries(rng, 2, 100, 100, 25, 200)
	d := NewFastNetMon(time.Minute)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	for i, m := range series {
		var per [ddos.NumAttackTypes]float64
		per[ddos.UDPFlood] = bytesOf(m, time.Minute)
		d.Observe(victim, t0.Add(time.Duration(i)*time.Minute), per)
	}
	if len(d.Alerts()) != 0 {
		t.Fatal("alert should still be active before Finish")
	}
	end := t0.Add(200 * time.Minute)
	alerts := d.Finish(end)
	if len(alerts) != 1 || !alerts[0].MitigatedAt.Equal(end) {
		t.Fatalf("Finish must close the active alert at end time: %+v", alerts)
	}
}

// TestFinishDeterministicOrder: Finish closes the mitigations still open
// in (victim, attack type) order, so two identical runs return equal
// slices whatever order the detector's map iterates in.
func TestFinishDeterministicOrder(t *testing.T) {
	step := time.Minute
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	run := func() []ddos.Alert {
		d := NewFastNetMon(step)
		for s := 0; s < 20; s++ {
			for v := 1; v <= 24; v++ {
				var perType [ddos.NumAttackTypes]float64
				for at := range perType {
					perType[at] = 1e3
					if s >= 12 && (v+at)%3 == 0 {
						perType[at] = 1e9 // a flood that never ends
					}
				}
				d.Observe(netip.AddrFrom4([4]byte{203, 0, 113, byte(v)}), t0.Add(time.Duration(s)*step), perType)
			}
		}
		return d.Finish(t0.Add(time.Hour))
	}
	a := run()
	if len(a) < 20 {
		t.Fatalf("%d alerts closed by Finish, want the open floods", len(a))
	}
	for i := 1; i < len(a); i++ {
		p, q := a[i-1].Sig, a[i].Sig
		if c := p.Victim.Compare(q.Victim); c > 0 || c == 0 && p.Type >= q.Type {
			t.Fatalf("alert %d (%v/%v) closed after %v/%v", i, q.Victim, q.Type, p.Victim, p.Type)
		}
	}
	for r := 0; r < 4; r++ {
		if b := run(); !reflect.DeepEqual(a, b) {
			t.Fatal("two identical runs returned different alert slices")
		}
	}
}
