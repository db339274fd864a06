package engine

import (
	"bytes"
	"maps"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
)

// holdShards parks every shard of eng inside a rewrite until release is
// called: what is submitted meanwhile waits in the mailboxes, so the
// shards meet it as runs.
func holdShards(eng *Engine) (release func()) {
	gate := make(chan struct{})
	for _, s := range eng.shards {
		s.mail <- message{op: opExec, done: make(chan error, 1), exec: func(*shard) error {
			<-gate
			return nil
		}}
	}
	return func() { close(gate) }
}

// collectAlerts drains eng's alert channel into a set until the channel
// closes; wait returns the set.
func collectAlerts(eng *Engine) (wait func() map[alertKey]bool) {
	got := map[alertKey]bool{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ev := range eng.Alerts() {
			got[alertKey{ev.Customer, ev.Alert.Sig.Type, ev.At}] = true
		}
	}()
	return func() map[alertKey]bool {
		wg.Wait()
		return got
	}
}

// batchTraffic submits ticks steps of traffic for customers: each
// customer's flows, a missing step for one in seven, and in tick 6 an
// EndMitigation between two customers' steps. poison, when valid, gets
// one step carrying a source whose Geo lookup panics, at tick 5.
func batchTraffic(t *testing.T, eng *Engine, customers []netip.Addr, ticks int, poison netip.Addr, drain bool) {
	t.Helper()
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	settle := func() {
		if drain {
			if err := eng.Drain(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for s := 0; s < ticks; s++ {
		at := t0.Add(time.Duration(s) * time.Minute)
		for i, c := range customers {
			var err error
			switch {
			case (s+i)%7 == 3:
				err = eng.ObserveMissing(c, at)
			case s == 5 && c == poison:
				flows := udpFlows(c, s+i, t0)
				flows[0].Src = poisonSrc
				err = eng.Submit(c, at, flows)
			default:
				err = eng.Submit(c, at, udpFlows(c, s+i, t0))
			}
			if err != nil {
				t.Fatal(err)
			}
			settle()
			if s == 6 && i == len(customers)/2 {
				if err := eng.EndMitigation(customers[1], ddos.UDPFlood); err != nil {
					t.Fatal(err)
				}
				settle()
			}
		}
	}
}

var poisonSrc = netip.MustParseAddr("66.6.6.6")

// batchEngineConfig is an engine over every attack type with snapshots,
// the watchdog and the WAL's eviction out of the way.
func batchEngineConfig(t *testing.T, shards int, policy core.MissingPolicy) Config {
	mc := tinyMonitorConfig(t)
	mc.Types = nil
	mc.MissingPolicy = policy
	geo := mc.Extractor.Geo
	mc.Extractor.Geo = func(src netip.Addr) string {
		if src == poisonSrc {
			panic("poison source")
		}
		return geo(src)
	}
	return Config{Monitor: mc, Shards: shards, Policy: Block, Queue: 1024, WAL: 4096,
		Watchdog: -1, CheckpointInterval: -1}
}

type batchRun struct {
	ckpt   []byte
	alerts map[alertKey]bool
	stats  Stats
	maxRun int
}

// runBatchTraffic feeds batchTraffic through a fresh engine: held, so
// runs form, or drained after every message, so none can.
func runBatchTraffic(t *testing.T, cfg Config, customers []netip.Addr, poison netip.Addr, batched bool) batchRun {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alerts := collectAlerts(eng)
	if batched {
		release := holdShards(eng)
		batchTraffic(t, eng, customers, 12, poison, false)
		release()
	} else {
		batchTraffic(t, eng, customers, 12, poison, true)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	var out batchRun
	var buf bytes.Buffer
	if err := eng.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	out.ckpt = buf.Bytes()
	out.stats = eng.Stats()
	for _, s := range eng.shards { // read after the Drain barrier
		out.maxRun = max(out.maxRun, cap(s.run))
	}
	eng.Close()
	out.alerts = alerts()
	return out
}

// TestEngineBatchedMatchesSerial: a shard that steps the runs waiting in
// its mailbox as batches ends in the same state — checkpoint bytes, alert
// set, counters — as one that only ever sees one message at a time.
func TestEngineBatchedMatchesSerial(t *testing.T) {
	customers := testCustomers(40)
	for _, shards := range []int{1, 2} {
		for _, policy := range []core.MissingPolicy{core.MissingZero, core.MissingCarry} {
			cfg := batchEngineConfig(t, shards, policy)
			serial := runBatchTraffic(t, cfg, customers, netip.Addr{}, false)
			batched := runBatchTraffic(t, cfg, customers, netip.Addr{}, true)
			if batched.maxRun < 2 {
				t.Fatalf("shards=%d policy=%d: no run of two or more formed", shards, policy)
			}
			if !bytes.Equal(batched.ckpt, serial.ckpt) {
				t.Errorf("shards=%d policy=%d: batched checkpoint differs from the serial one", shards, policy)
			}
			if len(serial.alerts) == 0 || !maps.Equal(batched.alerts, serial.alerts) {
				t.Errorf("shards=%d policy=%d: batched raised %d alerts, serial %d (or a different set)",
					shards, policy, len(batched.alerts), len(serial.alerts))
			}
			for _, st := range []Stats{serial.stats, batched.stats} {
				if st.Steps+st.Missing+st.Bypassed+st.Shed != st.Submitted {
					t.Errorf("shards=%d policy=%d: steps %d + missing %d + bypassed %d + shed %d != submitted %d",
						shards, policy, st.Steps, st.Missing, st.Bypassed, st.Shed, st.Submitted)
				}
			}
			if b, s := batched.stats, serial.stats; b.Steps != s.Steps || b.Missing != s.Missing || b.Alerts != s.Alerts || b.Channels != s.Channels {
				t.Errorf("shards=%d policy=%d: batched steps/missing/alerts/channels %d/%d/%d/%d, serial %d/%d/%d/%d",
					shards, policy, b.Steps, b.Missing, b.Alerts, b.Channels, s.Steps, s.Missing, s.Alerts, s.Channels)
			}
		}
	}
}

// TestEnginePoisonInRun: a step that panics inside a run quarantines that
// message alone; the rest of the run is applied exactly once, so state and
// alerts match a shard that met the poison on its own. With the WAL whole
// the monitor's rebuild before the run is handled again is exact and
// uncounted, so every supervision counter matches too; with the WAL
// disabled the rebuild is a counted restart of its own.
func TestEnginePoisonInRun(t *testing.T) {
	customers := testCustomers(40)
	poison := customers[17]
	for _, wal := range []int{4096, -1} {
		cfg := batchEngineConfig(t, 1, core.MissingZero)
		cfg.WAL = wal
		serial := runBatchTraffic(t, cfg, customers, poison, false)
		batched := runBatchTraffic(t, cfg, customers, poison, true)
		if batched.maxRun < 2 {
			t.Fatal("no run of two or more formed")
		}
		b, s := batched.stats, serial.stats
		if b.Quarantined != 1 || b.Lost != 1 || s.Quarantined != 1 || s.Lost != 1 {
			t.Errorf("wal=%d: quarantined/lost %d/%d batched, %d/%d serial, want 1/1", wal, b.Quarantined, b.Lost, s.Quarantined, s.Lost)
		}
		if b.Steps != s.Steps || b.Missing != s.Missing || b.Steps+b.Missing+b.Lost != b.Submitted {
			t.Errorf("wal=%d: batched steps/missing/submitted %d/%d/%d, serial %d/%d/%d",
				wal, b.Steps, b.Missing, b.Submitted, s.Steps, s.Missing, s.Submitted)
		}
		if wal > 0 && (b.Restarts != s.Restarts || b.WALReplayed != s.WALReplayed || b.WALDropped != s.WALDropped) {
			t.Errorf("batched counters %+v differ from serial %+v", b, s)
		}
		if !bytes.Equal(batched.ckpt, serial.ckpt) {
			t.Errorf("wal=%d: batched checkpoint differs from the serial one: a message was applied twice or lost", wal)
		}
		if !maps.Equal(batched.alerts, serial.alerts) {
			t.Errorf("wal=%d: batched raised %d alerts, serial %d (or a different set)", wal, len(batched.alerts), len(serial.alerts))
		}
	}
}
