package engine

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/attackhist"
	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/netflow"
)

func tinyModel(t testing.TB) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig(features.NumFeatures)
	cfg.Hidden = 4
	cfg.PoolShort, cfg.PoolMed, cfg.PoolLong = 1, 2, 4
	cfg.Window = 4
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyExtractor() *features.Extractor {
	return &features.Extractor{
		Blocklists: blocklist.NewRegistry(),
		History:    attackhist.NewRegistry(),
		Geo:        func(netip.Addr) string { return "US" },
		A4Window:   240 * time.Hour,
		A5Window:   24 * time.Hour,
	}
}

// tinyMonitorConfig alerts as soon as a stream warms (threshold above 1)
// on UDP-flood traffic; Extract is pure with RecordHistory off, so one
// extractor is safely shared across shards and reference monitors.
func tinyMonitorConfig(t testing.TB) MonitorConfig {
	return MonitorConfig{
		Default:           tinyModel(t),
		Extractor:         tinyExtractor(),
		Threshold:         1.5,
		Types:             []ddos.AttackType{ddos.UDPFlood},
		MitigationTimeout: 10 * time.Minute,
	}
}

func testCustomers(n int) []netip.Addr {
	cs := make([]netip.Addr, n)
	for i := range cs {
		cs[i] = netip.MustParseAddr(fmt.Sprintf("203.0.113.%d", i+1))
	}
	return cs
}

// udpFlows builds a deterministic per-(customer, step) batch of UDP flows
// that match the UDP-flood signature.
func udpFlows(customer netip.Addr, step int, t0 time.Time) []netflow.Record {
	at := t0.Add(time.Duration(step) * time.Minute)
	n := 1 + step%3
	flows := make([]netflow.Record, 0, n)
	for j := 0; j < n; j++ {
		flows = append(flows, netflow.Record{
			Src:     netip.MustParseAddr(fmt.Sprintf("11.1.%d.%d", step%250+1, j+1)),
			Dst:     customer,
			Proto:   netflow.ProtoUDP,
			SrcPort: uint16(1024 + step + j),
			DstPort: 80,
			Packets: uint32(10 + j),
			Bytes:   uint32(6000 + 100*j),
			Start:   at,
			End:     at.Add(30 * time.Second),
		})
	}
	return flows
}

type alertKey struct {
	customer netip.Addr
	atype    ddos.AttackType
	at       time.Time
}

// stepBatch is one recorded step of telemetry: per-customer flows, with
// absent customers receiving a missing-step observation.
type stepBatch struct {
	at    time.Time
	flows map[netip.Addr][]netflow.Record
}

// replayIntoMonitor feeds recorded batches to a bare Monitor and returns
// the alert set.
func replayIntoMonitor(t *testing.T, cfg MonitorConfig, customers []netip.Addr, batches []stepBatch) map[alertKey]bool {
	t.Helper()
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := map[alertKey]bool{}
	for _, b := range batches {
		for _, c := range customers {
			flows, ok := b.flows[c]
			if !ok {
				mon.ObserveMissing(c, b.at)
				continue
			}
			for _, a := range mon.ObserveStep(c, b.at, flows) {
				got[alertKey{c, a.Sig.Type, b.at}] = true
			}
		}
	}
	return got
}

// replayIntoEngine feeds the same batches through an Engine and returns
// the fanned-in alert set.
func replayIntoEngine(t *testing.T, cfg Config, customers []netip.Addr, batches []stepBatch) (map[alertKey]bool, Stats) {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		for _, c := range customers {
			flows, ok := b.flows[c]
			var err error
			if !ok {
				err = eng.ObserveMissing(c, b.at)
			} else {
				err = eng.Submit(c, b.at, flows)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	eng.Close()
	got := map[alertKey]bool{}
	for ev := range eng.Alerts() {
		if ev.Shard != eng.ShardOf(ev.Customer) {
			t.Fatalf("alert for %v reported from shard %d, owner is %d", ev.Customer, ev.Shard, eng.ShardOf(ev.Customer))
		}
		got[alertKey{ev.Customer, ev.Alert.Sig.Type, ev.At}] = true
	}
	return got, st
}

// TestEngineParityWithEndMitigation interleaves EndMitigation signals and
// checks engine/monitor parity is preserved (control messages are routed
// to the owning shard in FIFO order with the telemetry).
func TestEngineParityWithEndMitigation(t *testing.T) {
	customers := testCustomers(8)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	model := tinyModel(t)
	ext := tinyExtractor()
	mkCfg := func() MonitorConfig {
		return MonitorConfig{
			Default: model, Extractor: ext, Threshold: 1.5,
			Types:             []ddos.AttackType{ddos.UDPFlood},
			MitigationTimeout: time.Hour, // only EndMitigation re-arms
		}
	}

	mon, err := NewMonitor(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Monitor: mkCfg(), Shards: 3, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	want := map[alertKey]bool{}
	for s := 0; s < 30; s++ {
		at := t0.Add(time.Duration(s) * time.Minute)
		for _, c := range customers {
			flows := udpFlows(c, s, t0)
			for _, a := range mon.ObserveStep(c, at, flows) {
				want[alertKey{c, a.Sig.Type, at}] = true
			}
			if err := eng.Submit(c, at, flows); err != nil {
				t.Fatal(err)
			}
		}
		if s%9 == 8 {
			for _, c := range customers[:4] {
				mon.EndMitigation(c, ddos.UDPFlood)
				if err := eng.EndMitigation(c, ddos.UDPFlood); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	got := map[alertKey]bool{}
	for ev := range eng.Alerts() {
		got[alertKey{ev.Customer, ev.Alert.Sig.Type, ev.At}] = true
	}
	if len(want) < 2*len(customers) {
		t.Fatalf("fixture too quiet: only %d reference alerts", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("engine raised %d alerts, monitor %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing alert %+v", k)
		}
	}
}

// TestEngineConcurrentProducers drives one engine from many goroutines —
// the -race enforcement of the Monitor single-thread contract: every
// ObserveStep still happens on its owning shard only.
func TestEngineConcurrentProducers(t *testing.T) {
	eng, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 4, Queue: 64, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	customers := testCustomers(64)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)

	var consumed sync.WaitGroup
	consumed.Add(1)
	var alertCount int
	go func() {
		defer consumed.Done()
		for range eng.Alerts() {
			alertCount++
		}
	}()

	const producers, stepsPer = 8, 50
	var wg sync.WaitGroup
	wg.Add(producers)
	for p := 0; p < producers; p++ {
		go func(p int) {
			defer wg.Done()
			for s := 0; s < stepsPer; s++ {
				c := customers[(p*stepsPer+s)%len(customers)]
				if err := eng.Submit(c, t0.Add(time.Duration(s)*time.Minute), udpFlows(c, s, t0)); err != nil {
					t.Error(err)
					return
				}
				if s%7 == 3 {
					if err := eng.ObserveMissing(c, t0.Add(time.Duration(s)*time.Minute)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	eng.Close()
	consumed.Wait()

	missingPer := 0
	for s := 0; s < stepsPer; s++ {
		if s%7 == 3 {
			missingPer++
		}
	}
	wantSubmitted := uint64(producers * (stepsPer + missingPer))
	if st.Submitted != wantSubmitted {
		t.Fatalf("submitted %d, want %d", st.Submitted, wantSubmitted)
	}
	if st.Steps+st.Missing != st.Submitted || st.Shed != 0 {
		t.Fatalf("after drain: steps=%d missing=%d shed=%d submitted=%d", st.Steps, st.Missing, st.Shed, st.Submitted)
	}
	if uint64(alertCount) != st.Alerts || alertCount == 0 {
		t.Fatalf("consumed %d alerts, shards counted %d", alertCount, st.Alerts)
	}
	// Dual shutdown must be safe.
	eng.Close()
	if err := eng.Submit(customers[0], t0, nil); err != ErrClosed {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestEngineShedOldest stalls the single shard behind an undrained
// 1-slot alert channel and verifies ShedOldest keeps Submit non-blocking,
// counts the drops, and preserves the accounting identity.
func TestEngineShedOldest(t *testing.T) {
	cfg := tinyMonitorConfig(t)
	cfg.MitigationTimeout = time.Nanosecond // re-alert every warm step
	eng, err := New(Config{Monitor: cfg, Shards: 1, Queue: 2, Policy: ShedOldest, AlertBuffer: 1})
	if err != nil {
		t.Fatal(err)
	}
	customer := testCustomers(1)[0]
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	const total = 50
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := 0; s < total; s++ {
			if err := eng.Submit(customer, t0.Add(time.Duration(s)*time.Minute), udpFlows(customer, s, t0)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	select {
	case <-done:
		// Submission never blocked even though the shard stalled on alert
		// delivery: that is the whole point of ShedOldest.
	case <-time.After(30 * time.Second):
		t.Fatal("ShedOldest Submit blocked")
	}
	// Unblock the shard and let the queue flush.
	var alerts int
	go func() {
		if err := eng.Drain(); err != nil {
			t.Error(err)
		}
		eng.Close()
	}()
	for range eng.Alerts() {
		alerts++
	}
	st := eng.Stats()
	if st.Submitted != total {
		t.Fatalf("submitted %d, want %d", st.Submitted, total)
	}
	if st.Shed == 0 {
		t.Fatal("stalled shard with queue 2 shed nothing across 50 submits")
	}
	if st.Steps+st.Shed != st.Submitted {
		t.Fatalf("accounting broken: steps=%d shed=%d submitted=%d", st.Steps, st.Shed, st.Submitted)
	}
	if st.QueueHighWater == 0 {
		t.Fatal("queue high-water never moved")
	}
	// How many of the surviving steps alert depends on scheduling (the
	// shard may warm or not before the flush); the channel was drained
	// above so the engine could shut down cleanly either way.
	_ = alerts
}

// TestEngineShardRouting pins the stable-hash invariants: in-range,
// deterministic across engines, spread across shards, and consistent with
// ShardOf for every alert (checked in the parity tests).
func TestEngineShardRouting(t *testing.T) {
	a, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	used := map[int]int{}
	for i := 0; i < 256; i++ {
		c := netip.AddrFrom4([4]byte{10, 0, byte(i / 256), byte(i)})
		sa, sb := a.ShardOf(c), b.ShardOf(c)
		if sa != sb {
			t.Fatalf("routing not stable: %v → %d vs %d", c, sa, sb)
		}
		if sa < 0 || sa >= 4 {
			t.Fatalf("shard %d out of range", sa)
		}
		used[sa]++
	}
	for s := 0; s < 4; s++ {
		if used[s] == 0 {
			t.Fatalf("shard %d received no customers out of 256", s)
		}
	}
	// v4 and its v4-in-v6 form are the same wire customer: same shard.
	v4 := netip.MustParseAddr("203.0.113.9")
	v6 := netip.AddrFrom16(v4.As16())
	if a.ShardOf(v4) != a.ShardOf(v6) {
		t.Fatal("v4 and v4-in-v6 forms routed differently")
	}
}
