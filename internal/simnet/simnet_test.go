package simnet

import (
	"net/netip"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/ddos"
)

// smallConfig keeps test worlds fast.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Days = 6
	cfg.NumCustomers = 8
	cfg.NumBotnets = 3
	cfg.BotsPerBotnet = 30
	cfg.ResolverPoolSize = 20
	cfg.MeanAttacksPerBotnetPerWeek = 10
	cfg.PrepDaysMax = 4
	return cfg
}

func mustWorld(t *testing.T, cfg Config) *World {
	t.Helper()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Step = 0 },
		func(c *Config) { c.Days = 0 },
		func(c *Config) { c.NumCustomers = 0 },
		func(c *Config) { c.NumBotnets = 0 },
		func(c *Config) { c.BotsPerBotnet = 0 },
		func(c *Config) { c.PrepDaysMax = -1 },
		func(c *Config) { c.BaseMbpsMin = 0 },
		func(c *Config) { c.BaseMbpsMax = 0.5 },
		func(c *Config) { c.BenignFlowsPerStep = 0 },
		func(c *Config) { c.TypeMix[0] = -0.1 },
		func(c *Config) { c.TypeMix = [ddos.NumAttackTypes]float64{} },
	}
	for i, mutate := range bad {
		c := smallConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestConfigTimeMath(t *testing.T) {
	cfg := smallConfig()
	if cfg.Steps() != 6*24*60 {
		t.Fatalf("Steps = %d", cfg.Steps())
	}
	if cfg.StepsPerDay() != 1440 {
		t.Fatalf("StepsPerDay = %d", cfg.StepsPerDay())
	}
	ts := cfg.TimeOf(90)
	if cfg.StepOf(ts) != 90 {
		t.Fatal("TimeOf/StepOf must round-trip")
	}
}

func TestWorldDeterministic(t *testing.T) {
	cfg := smallConfig()
	w1 := mustWorld(t, cfg)
	w2 := mustWorld(t, cfg)
	if len(w1.Events) != len(w2.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(w1.Events), len(w2.Events))
	}
	for i := range w1.Events {
		a, b := w1.Events[i], w2.Events[i]
		if a.Victim != b.Victim || a.Type != b.Type || a.StartStep != b.StartStep || a.PeakMbps != b.PeakMbps {
			t.Fatalf("event %d differs", i)
		}
	}
	// Flow-level determinism at a few probes.
	for _, probe := range [][2]int{{0, 100}, {3, 5000}, {7, 8000}} {
		f1 := w1.FlowsAt(probe[0], probe[1])
		f2 := w2.FlowsAt(probe[0], probe[1])
		if len(f1) != len(f2) {
			t.Fatalf("flow counts differ at %v", probe)
		}
		for i := range f1 {
			if f1[i] != f2[i] {
				t.Fatalf("flow %d at %v differs", i, probe)
			}
		}
	}
}

func TestWorldHasAttacks(t *testing.T) {
	w := mustWorld(t, smallConfig())
	if len(w.Events) < 5 {
		t.Fatalf("too few attacks scheduled: %d", len(w.Events))
	}
	for i := range w.Events {
		ev := &w.Events[i]
		if ev.StartStep < 0 || ev.EndStep() > w.Cfg.Steps() {
			t.Fatalf("event %d outside horizon", i)
		}
		if ev.PeakMbps <= 0 || ev.DurSteps <= 0 || ev.DR <= 0 {
			t.Fatalf("event %d has degenerate params: %+v", i, ev)
		}
		if ev.VolumeScale != 1 {
			t.Fatalf("event %d must start without evasion", i)
		}
	}
}

func TestNoOverlappingAttacksPerVictim(t *testing.T) {
	w := mustWorld(t, smallConfig())
	for ci := range w.Customers {
		evs := w.EventsFor(ci)
		for i := 1; i < len(evs); i++ {
			prev, cur := &w.Events[evs[i-1]], &w.Events[evs[i]]
			if cur.StartStep < prev.EndStep() {
				t.Fatalf("customer %d has overlapping attacks %d and %d", ci, evs[i-1], evs[i])
			}
		}
	}
}

func TestAttackTypeRepetition(t *testing.T) {
	// Fig 4(b): consecutive attacks on the same customer repeat their type
	// the vast majority of the time.
	cfg := smallConfig()
	cfg.Days = 20
	cfg.MeanAttacksPerBotnetPerWeek = 14
	w := mustWorld(t, cfg)
	same, total := 0, 0
	for ci := range w.Customers {
		evs := w.EventsFor(ci)
		for i := 1; i < len(evs); i++ {
			total++
			if w.Events[evs[i]].Type == w.Events[evs[i-1]].Type {
				same++
			}
		}
	}
	if total < 10 {
		t.Skipf("not enough consecutive pairs (%d)", total)
	}
	if frac := float64(same) / float64(total); frac < 0.8 {
		t.Fatalf("same-type repetition %.2f, want ≥0.8", frac)
	}
}

func TestAnomalousMbpsRamp(t *testing.T) {
	w := mustWorld(t, smallConfig())
	ev := &w.Events[0]
	if got := w.AnomalousMbps(ev, ev.StartStep-1); got != 0 {
		t.Fatalf("rate before start = %v", got)
	}
	if got := w.AnomalousMbps(ev, ev.EndStep()); got != 0 {
		t.Fatalf("rate after end = %v", got)
	}
	// Rate must be non-decreasing until it hits the peak.
	prev := 0.0
	for s := ev.StartStep; s < ev.EndStep(); s++ {
		v := w.AnomalousMbps(ev, s)
		if v < prev-1e-9 {
			t.Fatalf("ramp decreased at step %d: %v -> %v", s, prev, v)
		}
		if v > ev.PeakMbps+1e-9 {
			t.Fatalf("rate %v exceeds peak %v", v, ev.PeakMbps)
		}
		prev = v
	}
}

func TestVolumeScaleEvasion(t *testing.T) {
	w := mustWorld(t, smallConfig())
	ev := &w.Events[0]
	base := w.AnomalousMbps(ev, ev.StartStep)
	ev.VolumeScale = 0.25
	ev.VolumeScaleSteps = 3
	if got := w.AnomalousMbps(ev, ev.StartStep); got != base*0.25 {
		t.Fatalf("scaled rate = %v, want %v", got, base*0.25)
	}
	// Beyond the scaling window the rate is unscaled again.
	if w.AnomalousMbps(ev, ev.StartStep+3) != w.AnomalousMbps(ev, ev.StartStep+3) {
		t.Fatal("unreachable")
	}
	ev.VolumeScale = 1
	ev.VolumeScaleSteps = 0
}

func TestAttackFlowsMatchSignature(t *testing.T) {
	w := mustWorld(t, smallConfig())
	for i := range w.Events {
		ev := &w.Events[i]
		sig := ev.Signature()
		// Probe a step late in the attack where volume is near peak.
		step := ev.EndStep() - 1
		var matched float64
		for _, r := range w.FlowsAt(ev.VictimIdx, step) {
			if err := r.Validate(); err != nil {
				t.Fatalf("event %d: invalid flow: %v", i, err)
			}
			if sig.Matches(r) {
				matched += float64(r.Bytes)
			}
		}
		want := w.stepBytes(w.AnomalousMbps(ev, step))
		if matched < want*0.5 {
			t.Fatalf("event %d (%v): matched bytes %v below half of anomalous %v", i, ev.Type, matched, want)
		}
	}
}

func TestBenignTrafficProperties(t *testing.T) {
	w := mustWorld(t, smallConfig())
	// Find a quiet customer-step far from any attack.
	ci := 0
	step := 50
	var total float64
	for _, r := range w.FlowsAt(ci, step) {
		if err := r.Validate(); err != nil {
			t.Fatal(err)
		}
		if r.Dst != w.Customers[ci].Addr {
			t.Fatal("flows must target the customer")
		}
		total += float64(r.Bytes)
	}
	model := w.stepBytes(w.BenignMbps(ci, step))
	if total < model*0.4 || total > model*2.5 {
		t.Fatalf("benign bytes %v too far from model %v", total, model)
	}
}

func TestBenignDiurnalCycle(t *testing.T) {
	w := mustWorld(t, smallConfig())
	c := &w.Customers[0]
	// Average the model rate at the peak hour vs the trough hour across days.
	peakStep := int(c.PeakHour * 60)
	troughStep := (peakStep + 720) % 1440
	var peakSum, troughSum float64
	days := 5
	for d := 0; d < days; d++ {
		peakSum += w.BenignMbps(0, d*1440+peakStep)
		troughSum += w.BenignMbps(0, d*1440+troughStep)
	}
	if peakSum <= troughSum {
		t.Fatalf("diurnal cycle missing: peak %v ≤ trough %v", peakSum, troughSum)
	}
}

func TestPrepActivityIncreasesTowardAttack(t *testing.T) {
	// Fig 15: more prep flows in the final days before the attack than in
	// the earliest prep days. Aggregate across events for stability.
	cfg := smallConfig()
	cfg.Days = 12
	cfg.PrepDaysMax = 6
	w := mustWorld(t, cfg)
	spd := cfg.StepsPerDay()
	// Count prep flows per days-before-attack band and compare per-day rates.
	perDay := map[int]int{}
	for i := range w.Events {
		ev := &w.Events[i]
		if ev.PrepDays < 4 || ev.StartStep < 4*spd {
			continue
		}
		for _, pf := range ev.prepFlows {
			daysBefore := (ev.StartStep - int(pf.step) - 1) / spd
			perDay[daysBefore]++
		}
	}
	if perDay[0] == 0 {
		t.Fatal("no prep flows the day before attacks")
	}
	if perDay[0] <= perDay[3] {
		t.Fatalf("per-day prep activity must rise toward the attack: day-1=%d day-4=%d", perDay[0], perDay[3])
	}
}

func TestBlocklistCoversBotsPartially(t *testing.T) {
	w := mustWorld(t, smallConfig())
	at := w.Cfg.Start
	listed, unlisted := 0, 0
	for _, bn := range w.Botnets {
		for _, b := range bn.Bots {
			if w.Blocklists.AnyListedAt(b, at) {
				listed++
			} else {
				unlisted++
			}
		}
	}
	if listed == 0 {
		t.Fatal("no bots blocklisted")
	}
	if unlisted == 0 {
		t.Fatal("blocklists must be incomplete (some bots evade)")
	}
}

func TestDNSAmpUsesResolvers(t *testing.T) {
	cfg := smallConfig()
	cfg.TypeMix = [ddos.NumAttackTypes]float64{ddos.DNSAmp: 1}
	cfg.SameTypeRepeatProb = 1
	w := mustWorld(t, cfg)
	if len(w.Events) == 0 {
		t.Skip("no events scheduled")
	}
	ev := &w.Events[0]
	resolvers := make(map[string]bool)
	for _, r := range w.Resolvers {
		resolvers[r.String()] = true
	}
	step := ev.EndStep() - 1
	sig := ev.Signature()
	for _, r := range w.FlowsAt(ev.VictimIdx, step) {
		if sig.Matches(r) && float64(r.Bytes) > 5000 {
			if !resolvers[r.Src.String()] {
				t.Fatalf("DNS amp flow from non-resolver %v", r.Src)
			}
			if r.SrcPort != 53 {
				t.Fatalf("DNS amp flow src port %d", r.SrcPort)
			}
		}
	}
}

func TestSpoofedSourcesPresentForSYNFloods(t *testing.T) {
	cfg := smallConfig()
	cfg.TypeMix = [ddos.NumAttackTypes]float64{ddos.TCPSYN: 1}
	cfg.SameTypeRepeatProb = 1
	cfg.SpoofFraction = 0.5
	w := mustWorld(t, cfg)
	if len(w.Events) == 0 {
		t.Skip("no events scheduled")
	}
	spoofed, total := 0, 0
	for i := range w.Events {
		ev := &w.Events[i]
		for s := ev.StartStep; s < ev.EndStep(); s++ {
			for _, r := range w.FlowsAt(ev.VictimIdx, s) {
				if ev.Signature().Matches(r) {
					total++
					if w.Spoof.IsSpoofed(r.Src, 0) {
						spoofed++
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no SYN attack flows found")
	}
	frac := float64(spoofed) / float64(total)
	if frac < 0.2 || frac > 0.8 {
		t.Fatalf("spoofed fraction %.2f outside plausible band", frac)
	}
}

func TestSignatureBytesConsistentWithFlows(t *testing.T) {
	w := mustWorld(t, smallConfig())
	ev := &w.Events[0]
	step := ev.EndStep() - 1
	perType, total := w.SignatureBytes(ev.VictimIdx, step)
	var manualTotal float64
	for _, r := range w.FlowsAt(ev.VictimIdx, step) {
		manualTotal += float64(r.Bytes)
	}
	if total != manualTotal {
		t.Fatalf("total %v != manual %v", total, manualTotal)
	}
	if perType[ev.Type] <= 0 {
		t.Fatalf("no bytes attributed to the active attack type %v", ev.Type)
	}
	if perType[ev.Type] > total {
		t.Fatal("per-type bytes cannot exceed total")
	}
}

func TestFlowsAtOutOfRange(t *testing.T) {
	w := mustWorld(t, smallConfig())
	if w.FlowsAt(-1, 0) != nil || w.FlowsAt(0, -1) != nil ||
		w.FlowsAt(len(w.Customers), 0) != nil || w.FlowsAt(0, w.Cfg.Steps()) != nil {
		t.Fatal("out-of-range queries must return nil")
	}
}

func TestCustomerIndex(t *testing.T) {
	w := mustWorld(t, smallConfig())
	for i, c := range w.Customers {
		if w.CustomerIndex(c.Addr) != i {
			t.Fatalf("CustomerIndex(%v) != %d", c.Addr, i)
		}
	}
	if w.CustomerIndex(w.Botnets[0].Bots[0]) != -1 {
		t.Fatal("non-customer must map to -1")
	}
}

func TestGeoOf(t *testing.T) {
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		a := [4]byte{byte(i % 223), byte(i / 7 % 256), 1, 1}
		c := GeoOf(netipAddr(a))
		counts[c]++
		if CountryIndex(c) < 0 || CountryIndex(c) >= len(Countries) {
			t.Fatalf("country %q not indexed", c)
		}
	}
	if len(counts) < 8 {
		t.Fatalf("too few countries used: %v", counts)
	}
	if CountryIndex("XX") != len(Countries)-1 {
		t.Fatal("unknown country must map to the catch-all")
	}
	// Deterministic.
	a := netipAddr([4]byte{11, 22, 33, 44})
	if GeoOf(a) != GeoOf(a) {
		t.Fatal("GeoOf must be deterministic")
	}
}

func TestChatterMakesBlocklistSignalsWeak(t *testing.T) {
	// Botnet addresses must show up at customers even far away from any
	// attack — otherwise the A1 signal would be unrealistically clean.
	w := mustWorld(t, smallConfig())
	bots := map[string]bool{}
	for _, bn := range w.Botnets {
		for _, b := range bn.Bots {
			bots[b.String()] = true
		}
	}
	// Customer with no attacks at all, if any; else use early quiet period.
	found := false
	for ci := range w.Customers {
		for step := 0; step < 1440; step++ {
			for _, r := range w.FlowsAt(ci, step) {
				if bots[r.Src.String()] {
					found = true
				}
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no bot chatter observed in the first simulated day")
	}
}

func netipAddr(b [4]byte) (a netip.Addr) { return netip.AddrFrom4(b) }

func TestWorldWithFewCustomers(t *testing.T) {
	// Regression: botnet target counts must clamp to the customer count.
	cfg := smallConfig()
	cfg.NumCustomers = 1
	w := mustWorld(t, cfg)
	for i := range w.Events {
		if w.Events[i].VictimIdx != 0 {
			t.Fatal("single-customer world must target customer 0")
		}
	}
}

func TestWeekendFactorApplied(t *testing.T) {
	cfg := smallConfig()
	cfg.Days = 14 // guarantee both weekend and weekday samples
	w := mustWorld(t, cfg)
	c := &w.Customers[1]
	// Compare model rate at the same hour on a Saturday vs the preceding
	// Wednesday; only the weekly factor differs (plus noise, so average
	// over many probes).
	var wkdaySum, wkendSum float64
	n := 0
	for step := 0; step < cfg.Steps(); step++ {
		ts := cfg.TimeOf(step)
		if ts.Hour() != 12 || ts.Minute() != 0 {
			continue
		}
		switch ts.Weekday() {
		case time.Wednesday:
			wkdaySum += w.BenignMbps(1, step)
			n++
		case time.Saturday:
			wkendSum += w.BenignMbps(1, step)
		}
	}
	if n == 0 {
		t.Skip("no probes")
	}
	ratio := wkendSum / wkdaySum
	want := c.WeekendFactor
	if ratio < want*0.5 || ratio > want*1.8 {
		t.Fatalf("weekend/weekday ratio %.2f far from factor %.2f", ratio, want)
	}
}

func TestBenignBurstRaisesRate(t *testing.T) {
	w := mustWorld(t, smallConfig())
	for ci := range w.Customers {
		c := &w.Customers[ci]
		for _, b := range c.Bursts {
			if b.StartStep+b.DurSteps >= w.Cfg.Steps() {
				continue
			}
			in := w.BenignMbps(ci, b.StartStep+b.DurSteps/2)
			out := w.BenignMbps(ci, b.StartStep+b.DurSteps+5)
			// The burst factor is ≥1.5; noise is ±~30%, so inside should
			// comfortably exceed outside for most bursts. Check just one
			// clear case and return.
			if in > out*1.2 {
				return
			}
		}
	}
	t.Fatal("no burst visibly raised the benign rate")
}

func TestSignatureBytesDeterministic(t *testing.T) {
	w := mustWorld(t, smallConfig())
	p1, t1 := w.SignatureBytes(2, 3000)
	p2, t2 := w.SignatureBytes(2, 3000)
	if p1 != p2 || t1 != t2 {
		t.Fatal("SignatureBytes must be deterministic")
	}
}

// BenchmarkWorldFlowsAt times flow synthesis on xatu-bench's 12-day,
// 10-customer world (xatu.BenchPipelineConfig(12, 1)).
func BenchmarkWorldFlowsAt(b *testing.B) {
	cfg := DefaultConfig()
	cfg.Days = 12
	cfg.NumCustomers = 10
	cfg.Step = 2 * time.Minute
	cfg.NumBotnets = 5
	cfg.BotsPerBotnet = 40
	cfg.MeanAttacksPerBotnetPerWeek = 16
	cfg.MeanPeakMbps = 30
	cfg.PrepDaysMax = 4
	w, err := NewWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.FlowsAt(i%len(w.Customers), i%cfg.Steps())
	}
}
