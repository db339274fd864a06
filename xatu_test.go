package xatu

import (
	"bytes"
	"math"
	"net/netip"
	"testing"
	"time"
)

func tinyModel(t *testing.T) *Model {
	t.Helper()
	cfg := DefaultModelConfig()
	cfg.Hidden = 4
	cfg.PoolShort, cfg.PoolMed, cfg.PoolLong = 1, 2, 4
	cfg.Window = 4
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyExtractor() *FeatureExtractor {
	return &FeatureExtractor{
		Blocklists: NewBlocklistRegistry(),
		History:    NewHistoryRegistry(),
		Geo:        func(netip.Addr) string { return "US" },
		A4Window:   240 * time.Hour,
		A5Window:   24 * time.Hour,
	}
}

func TestPublicModelSaveLoad(t *testing.T) {
	m := tinyModel(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestSignatureForPublic(t *testing.T) {
	victim := netip.MustParseAddr("23.1.1.1")
	sig := SignatureFor(DNSAmp, victim)
	if sig.Proto != ProtoUDP || sig.SrcPort != 53 {
		t.Fatalf("sig = %+v", sig)
	}
}

func TestFeatureHelpers(t *testing.T) {
	if len(FeatureNames()) != NumFeatures || NumFeatures != 273 {
		t.Fatal("feature inventory mismatch")
	}
	if FeatureGroupOf(0) != "V" || FeatureGroupOf(272) != "A5" {
		t.Fatal("group mapping wrong")
	}
	v := []float64{100}
	NormalizeFeatures(v)
	if v[0] >= 100 {
		t.Fatal("normalization did not compress")
	}
}

func TestNewMonitorValidation(t *testing.T) {
	m := tinyModel(t)
	if _, err := NewMonitor(MonitorConfig{Default: m, Threshold: 0.5}); err == nil {
		t.Fatal("missing extractor must error")
	}
	if _, err := NewMonitor(MonitorConfig{Default: m, Extractor: tinyExtractor()}); err == nil {
		t.Fatal("missing threshold must error")
	}
	// A NaN threshold would otherwise alert on every matching step
	// (s >= NaN is false); above 1 stays legal ("always alert").
	for _, th := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.5} {
		if _, err := NewMonitor(MonitorConfig{Default: m, Extractor: tinyExtractor(), Threshold: th}); err == nil {
			t.Fatalf("threshold %v must error", th)
		}
	}
	if _, err := NewMonitor(MonitorConfig{Default: m, Extractor: tinyExtractor(), Threshold: 1.5}); err != nil {
		t.Fatalf("threshold 1.5 (always alert) must stay legal: %v", err)
	}
	if _, err := NewMonitor(MonitorConfig{Extractor: tinyExtractor(), Threshold: 0.5}); err == nil {
		t.Fatal("no models must error")
	}
	mon, err := NewMonitor(MonitorConfig{Default: m, Extractor: tinyExtractor(), Threshold: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if mon == nil {
		t.Fatal("nil monitor")
	}
}

func TestMonitorAlertAndMitigationLifecycle(t *testing.T) {
	m := tinyModel(t)
	customer := netip.MustParseAddr("23.1.1.1")
	// Threshold above 1 means "alert as soon as warm": exercises the alert
	// and dedup mechanics without needing a trained model.
	mon, err := NewMonitor(MonitorConfig{
		Default:           m,
		Extractor:         tinyExtractor(),
		Threshold:         1.5,
		Types:             []AttackType{UDPFlood},
		MitigationTimeout: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	// Alerts are gated on traffic matching the type signature, so feed a
	// UDP flow each step.
	udpFlow := []Record{{
		Src: netip.MustParseAddr("11.1.1.1"), Dst: customer,
		Proto: ProtoUDP, SrcPort: 1234, DstPort: 80,
		Packets: 10, Bytes: 6000, Start: t0, End: t0.Add(time.Minute),
	}}
	var first time.Time
	alerted := 0
	for i := 0; i < 30; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		alerts := mon.ObserveStep(customer, at, udpFlow)
		if len(alerts) > 0 {
			alerted++
			if first.IsZero() {
				first = at
				if alerts[0].Sig.Type != UDPFlood || alerts[0].Source != "xatu" {
					t.Fatalf("alert = %+v", alerts[0])
				}
				if !mon.Mitigating(customer, UDPFlood) {
					t.Fatal("must be mitigating after alert")
				}
			}
		}
	}
	if alerted == 0 {
		t.Fatal("monitor never alerted")
	}
	// With a 10-minute timeout over 30 minutes, the monitor must not alert
	// every step — mitigation suppresses re-alerts.
	if alerted > 4 {
		t.Fatalf("mitigation dedup failed: %d alerts", alerted)
	}
	// EndMitigation resets the channel.
	mon.EndMitigation(customer, UDPFlood)
	if mon.Mitigating(customer, UDPFlood) {
		t.Fatal("EndMitigation must clear state")
	}
}

func TestMonitorNeverAlertsBelowImpossibleThreshold(t *testing.T) {
	m := tinyModel(t)
	customer := netip.MustParseAddr("23.1.1.1")
	mon, err := NewMonitor(MonitorConfig{
		Default: m, Extractor: tinyExtractor(), Threshold: 1e-12,
		Types: []AttackType{UDPFlood},
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	udpFlow := []Record{{
		Src: netip.MustParseAddr("11.1.1.1"), Dst: customer,
		Proto: ProtoUDP, SrcPort: 1234, DstPort: 80,
		Packets: 10, Bytes: 6000, Start: t0, End: t0.Add(time.Minute),
	}}
	for i := 0; i < 50; i++ {
		if alerts := mon.ObserveStep(customer, t0.Add(time.Duration(i)*time.Minute), udpFlow); len(alerts) != 0 {
			t.Fatal("impossible threshold must never alert")
		}
	}
}

func TestMonitorRecordsHistory(t *testing.T) {
	m := tinyModel(t)
	ext := tinyExtractor()
	customer := netip.MustParseAddr("23.1.1.1")
	src := netip.MustParseAddr("11.1.1.1")
	mon, err := NewMonitor(MonitorConfig{
		Default: m, Extractor: ext, Threshold: 1.5,
		Types: []AttackType{UDPFlood}, RecordHistory: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	flows := []Record{{
		Src: src, Dst: customer, Proto: ProtoUDP, SrcPort: 1234, DstPort: 80,
		Packets: 100, Bytes: 60000, Start: t0, End: t0.Add(time.Minute),
	}}
	for i := 0; i < 30; i++ {
		mon.ObserveStep(customer, t0.Add(time.Duration(i)*time.Minute), flows)
	}
	if !ext.History.WasAttacker(customer, src, t0.Add(2*time.Hour)) {
		t.Fatal("autoregressive mode must record attackers from its own alerts")
	}
}

func TestMonitorUnknownKeysSafe(t *testing.T) {
	m := tinyModel(t)
	mon, err := NewMonitor(MonitorConfig{
		Default: m, Extractor: tinyExtractor(), Threshold: 0.5,
		Types: []AttackType{UDPFlood},
	})
	if err != nil {
		t.Fatal(err)
	}
	ghost := netip.MustParseAddr("203.0.113.9")
	// Neither call may panic or create channel state for unseen keys.
	mon.EndMitigation(ghost, UDPFlood)
	mon.EndMitigation(ghost, DNSAmp) // type the monitor doesn't even watch
	if mon.Mitigating(ghost, UDPFlood) || mon.Mitigating(ghost, DNSAmp) {
		t.Fatal("unknown keys must not report mitigation")
	}
	mon.ObserveMissing(ghost, time.Now()) // no channels yet: must be a no-op
	if mon.Channels() != 0 {
		t.Fatalf("unknown-key calls created %d channels", mon.Channels())
	}
}

func TestMonitorRedetectsAfterEndMitigation(t *testing.T) {
	m := tinyModel(t)
	customer := netip.MustParseAddr("23.1.1.1")
	mon, err := NewMonitor(MonitorConfig{
		Default: m, Extractor: tinyExtractor(), Threshold: 1.5,
		Types: []AttackType{UDPFlood}, MitigationTimeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	udpFlow := []Record{{
		Src: netip.MustParseAddr("11.1.1.1"), Dst: customer,
		Proto: ProtoUDP, SrcPort: 1234, DstPort: 80,
		Packets: 10, Bytes: 6000, Start: t0, End: t0.Add(time.Minute),
	}}
	step := 0
	alertAt := func() int {
		for ; step < 200; step++ {
			at := t0.Add(time.Duration(step) * time.Minute)
			if len(mon.ObserveStep(customer, at, udpFlow)) > 0 {
				s := step
				step++
				return s
			}
		}
		t.Fatal("monitor never alerted")
		return -1
	}
	first := alertAt()
	if !mon.Mitigating(customer, UDPFlood) {
		t.Fatal("must be mitigating after first alert")
	}
	mon.EndMitigation(customer, UDPFlood)
	second := alertAt()
	// EndMitigation resets the stream, so the detector must re-warm before
	// the second alert — it cannot fire on the very next step.
	if second <= first+1 {
		t.Fatalf("re-detection at step %d did not re-warm (first at %d)", second, first)
	}
}

func TestMonitorMitigationTimeoutRearms(t *testing.T) {
	m := tinyModel(t)
	customer := netip.MustParseAddr("23.1.1.1")
	mon, err := NewMonitor(MonitorConfig{
		Default: m, Extractor: tinyExtractor(), Threshold: 1.5,
		Types: []AttackType{UDPFlood}, MitigationTimeout: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	udpFlow := []Record{{
		Src: netip.MustParseAddr("11.1.1.1"), Dst: customer,
		Proto: ProtoUDP, SrcPort: 1234, DstPort: 80,
		Packets: 10, Bytes: 6000, Start: t0, End: t0.Add(time.Minute),
	}}
	var alertSteps []int
	for i := 0; i < 40; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		if len(mon.ObserveStep(customer, at, udpFlow)) > 0 {
			alertSteps = append(alertSteps, i)
		}
	}
	if len(alertSteps) < 2 {
		t.Fatalf("timeout never re-armed alerting: alerts at %v", alertSteps)
	}
	for i := 1; i < len(alertSteps); i++ {
		if gap := alertSteps[i] - alertSteps[i-1]; gap < 10 {
			t.Fatalf("re-alert after %d min, inside the 10 min timeout (alerts %v)", gap, alertSteps)
		}
	}

	// ObserveMissing must also count the timeout down: a mitigation started
	// now and followed only by gap steps past the timeout releases.
	mon2, err := NewMonitor(MonitorConfig{
		Default: m, Extractor: tinyExtractor(), Threshold: 1.5,
		Types: []AttackType{UDPFlood}, MitigationTimeout: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	mitigated := -1
	for i := 0; i < 40; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		if mitigated < 0 {
			mon2.ObserveStep(customer, at, udpFlow)
			if mon2.Mitigating(customer, UDPFlood) {
				mitigated = i
			}
			continue
		}
		mon2.ObserveMissing(customer, at)
		if !mon2.Mitigating(customer, UDPFlood) {
			if held := i - mitigated; held < 10 {
				t.Fatalf("gap steps released mitigation after only %d min", held)
			}
			return
		}
	}
	t.Fatal("mitigation never released across gap steps")
}

func TestWorldPublicAPI(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Days = 2
	cfg.NumCustomers = 4
	cfg.NumBotnets = 2
	cfg.BotsPerBotnet = 10
	cfg.ResolverPoolSize = 10
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Customers) != 4 {
		t.Fatalf("customers = %d", len(w.Customers))
	}
	flows := w.FlowsAt(0, 100)
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
}

func TestMonitorRequiresMatchingTraffic(t *testing.T) {
	m := tinyModel(t)
	customer := netip.MustParseAddr("23.1.1.1")
	mon, err := NewMonitor(MonitorConfig{
		Default: m, Extractor: tinyExtractor(), Threshold: 1.5,
		Types: []AttackType{UDPFlood},
	})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	// Only TCP traffic: the UDP-flood channel must never alert.
	tcpFlow := []Record{{
		Src: netip.MustParseAddr("11.1.1.1"), Dst: customer,
		Proto: ProtoTCP, TCPFlags: 0x10, SrcPort: 1234, DstPort: 443,
		Packets: 10, Bytes: 6000, Start: t0, End: t0.Add(time.Minute),
	}}
	for i := 0; i < 30; i++ {
		if got := mon.ObserveStep(customer, t0.Add(time.Duration(i)*time.Minute), tcpFlow); len(got) != 0 {
			t.Fatal("UDP alert without UDP traffic")
		}
	}
}
