package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
)

// warmEngine builds an engine, feeds it a deterministic multi-customer
// trace (an unaligned number of steps, so pooled branches hold partial
// buffers and some channels are mid-mitigation) and drains it.
func warmEngine(t *testing.T, cfg Config, steps int) *Engine {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for range eng.Alerts() {
		}
	}()
	feedTrace(t, eng, steps)
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func feedTrace(t *testing.T, eng *Engine, steps int) {
	t.Helper()
	customers := testCustomers(24)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	for s := 0; s < steps; s++ {
		at := t0.Add(time.Duration(s) * time.Minute)
		for i, c := range customers {
			if (s+i)%5 == 4 {
				if err := eng.ObserveMissing(c, at); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := eng.Submit(c, at, udpFlows(c, s, t0)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// feedMonitorTrace drives a bare Monitor through the identical trace.
func feedMonitorTrace(t *testing.T, mon *Monitor, steps int) {
	t.Helper()
	customers := testCustomers(24)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	for s := 0; s < steps; s++ {
		at := t0.Add(time.Duration(s) * time.Minute)
		for i, c := range customers {
			if (s+i)%5 == 4 {
				mon.ObserveMissing(c, at)
				continue
			}
			mon.ObserveStep(c, at, udpFlows(c, s, t0))
		}
	}
}

// TestEngineCheckpointRehashBitExact is the shard-count-portability
// invariant: state checkpointed at 4 shards, restored at 3, re-saved,
// restored at 1, must byte-equal both (a) the same trace run on a bare
// Monitor and checkpointed through the version-1 path, and (b) that
// version-1 file restored directly into a 1-shard engine — every stream
// survives any number of rehash cycles bit-exactly.
func TestEngineCheckpointRehashBitExact(t *testing.T) {
	model := tinyModel(t)
	ext := tinyExtractor()
	mkMon := func() MonitorConfig {
		return MonitorConfig{
			Default: model, Extractor: ext, Threshold: 1.5,
			Types:             []ddos.AttackType{ddos.UDPFlood, ddos.TCPSYN},
			MitigationTimeout: 10 * time.Minute,
		}
	}
	const steps = 9

	eng4 := warmEngine(t, Config{Monitor: mkMon(), Shards: 4, Policy: Block}, steps)
	var ck4 bytes.Buffer
	if err := eng4.Checkpoint(&ck4); err != nil {
		t.Fatal(err)
	}
	eng4.Close()

	// The same trace on a bare Monitor → a version-1 file.
	mon, err := NewMonitor(mkMon())
	if err != nil {
		t.Fatal(err)
	}
	feedMonitorTrace(t, mon, steps)
	var ckMon bytes.Buffer
	if err := mon.Checkpoint(&ckMon); err != nil {
		t.Fatal(err)
	}

	// 4 shards → 3 shards → 1 shard, rehashing each time.
	eng3, err := New(Config{Monitor: mkMon(), Shards: 3, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng3.Restore(bytes.NewReader(ck4.Bytes())); err != nil {
		t.Fatal(err)
	}
	var ck3 bytes.Buffer
	if err := eng3.Checkpoint(&ck3); err != nil {
		t.Fatal(err)
	}
	eng3.Close()

	eng1, err := New(Config{Monitor: mkMon(), Shards: 1, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng1.Restore(bytes.NewReader(ck3.Bytes())); err != nil {
		t.Fatal(err)
	}
	var ck1 bytes.Buffer
	if err := eng1.Checkpoint(&ck1); err != nil {
		t.Fatal(err)
	}
	eng1.Close()

	// The version-1 monitor file restores directly into a 1-shard engine
	// (the backward-compat path) and must reproduce the same bytes.
	engCompat, err := New(Config{Monitor: mkMon(), Shards: 1, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	if err := engCompat.Restore(bytes.NewReader(ckMon.Bytes())); err != nil {
		t.Fatal(err)
	}
	var ckCompat bytes.Buffer
	if err := engCompat.Checkpoint(&ckCompat); err != nil {
		t.Fatal(err)
	}
	engCompat.Close()

	if !bytes.Equal(ck1.Bytes(), ckCompat.Bytes()) {
		t.Fatal("rehash 4→3→1 diverged from the direct monitor restore")
	}
	// The single segment inside the 1-shard engine file is exactly the
	// bare Monitor's sorted channel body.
	segs, err := checkpointSegments(ck1.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("1-shard checkpoint has %d segments", len(segs))
	}
	monSegs, err := checkpointSegments(ckMon.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(segs[0], monSegs[0]) {
		t.Fatal("1-shard engine segment differs from bare monitor checkpoint body")
	}
}

// TestEngineRestoreContinuationParity restores a 4-shard checkpoint into
// a 2-shard engine and requires the continuation to raise the identical
// alert set as an uninterrupted bare Monitor over the whole trace.
func TestEngineRestoreContinuationParity(t *testing.T) {
	model := tinyModel(t)
	ext := tinyExtractor()
	mkMon := func() MonitorConfig {
		return MonitorConfig{
			Default: model, Extractor: ext, Threshold: 1.5,
			Types:             []ddos.AttackType{ddos.UDPFlood},
			MitigationTimeout: 10 * time.Minute,
		}
	}
	customers := testCustomers(24)
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	const prefix, total = 9, 40

	// Uninterrupted reference run.
	mon, err := NewMonitor(mkMon())
	if err != nil {
		t.Fatal(err)
	}
	want := map[alertKey]bool{}
	for s := 0; s < total; s++ {
		at := t0.Add(time.Duration(s) * time.Minute)
		for _, c := range customers {
			for _, a := range mon.ObserveStep(c, at, udpFlows(c, s, t0)) {
				want[alertKey{c, a.Sig.Type, at}] = true
			}
		}
	}
	if len(want) == 0 {
		t.Fatal("reference run never alerted")
	}

	// Interrupted run: prefix on 4 shards, checkpoint, rest on 2 shards.
	eng4, err := New(Config{Monitor: mkMon(), Shards: 4, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	got := map[alertKey]bool{}
	collect := func(eng *Engine) {
		for ev := range eng.Alerts() {
			got[alertKey{ev.Customer, ev.Alert.Sig.Type, ev.At}] = true
		}
	}
	done4 := make(chan struct{})
	go func() { defer close(done4); collect(eng4) }()
	for s := 0; s < prefix; s++ {
		at := t0.Add(time.Duration(s) * time.Minute)
		for _, c := range customers {
			if err := eng4.Submit(c, at, udpFlows(c, s, t0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	var ck bytes.Buffer
	if err := eng4.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	eng4.Close()
	<-done4

	eng2, err := New(Config{Monitor: mkMon(), Shards: 2, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng2.Restore(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	done2 := make(chan struct{})
	go func() { defer close(done2); collect(eng2) }()
	for s := prefix; s < total; s++ {
		at := t0.Add(time.Duration(s) * time.Minute)
		for _, c := range customers {
			if err := eng2.Submit(c, at, udpFlows(c, s, t0)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := eng2.Drain(); err != nil {
		t.Fatal(err)
	}
	eng2.Close()
	<-done2

	if len(got) != len(want) {
		t.Fatalf("restored run raised %d alerts, uninterrupted %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("missing alert %+v", k)
		}
	}
}

// TestEngineCheckpointSegmentsRouteByHash verifies every channel record
// in a multi-shard checkpoint lives in the segment of its customer's
// owning shard — the on-disk form of "same customer, same shard".
func TestEngineCheckpointSegmentsRouteByHash(t *testing.T) {
	eng := warmEngine(t, Config{Monitor: tinyMonitorConfig(t), Shards: 4, Policy: Block}, 7)
	var ck bytes.Buffer
	if err := eng.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	segs, err := checkpointSegments(ck.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 4 {
		t.Fatalf("%d segments, want 4", len(segs))
	}
	total := 0
	for i, seg := range segs {
		chans, err := scanMonitorBody(seg)
		if err != nil {
			t.Fatalf("segment %d: %v", i, err)
		}
		total += len(chans)
		for _, rc := range chans {
			if own := shardOf(rc.customer, 4); own != i {
				t.Fatalf("customer %v stored in segment %d, owned by shard %d", rc.customer, i, own)
			}
		}
	}
	if total != 24 {
		t.Fatalf("%d channels across segments, want 24 (24 customers × 1 type)", total)
	}
}

// TestEngineRestoreRejectsCorruption exercises the failure paths: on any
// error the engine's previous state must be untouched.
func TestEngineRestoreRejectsCorruption(t *testing.T) {
	eng := warmEngine(t, Config{Monitor: tinyMonitorConfig(t), Shards: 2, Policy: Block}, 6)
	defer eng.Close()
	var before bytes.Buffer
	if err := eng.Checkpoint(&before); err != nil {
		t.Fatal(err)
	}
	good := before.Bytes()

	cases := map[string][]byte{
		"bad magic":     append([]byte("YMC1"), good[4:]...),
		"bad version":   append(append([]byte{}, good[:4]...), append([]byte{9, 0}, good[6:]...)...),
		"truncated":     good[:len(good)-10],
		"empty":         nil,
		"trailing junk": append(append([]byte{}, good...), 0xFF),
	}
	for name, data := range cases {
		if err := eng.Restore(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: restore succeeded", name)
		}
		var after bytes.Buffer
		if err := eng.Checkpoint(&after); err != nil {
			t.Fatalf("%s: checkpoint after failed restore: %v", name, err)
		}
		if !bytes.Equal(after.Bytes(), good) {
			t.Errorf("%s: failed restore mutated engine state", name)
		}
	}

	// An engine with a different model architecture must reject the
	// streams via the per-stream config digest.
	cfg := core.DefaultConfig(273)
	cfg.Hidden = 6
	cfg.PoolShort, cfg.PoolMed, cfg.PoolLong = 1, 2, 4
	cfg.Window = 4
	mm, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(Config{Monitor: MonitorConfig{
		Default: mm, Extractor: tinyExtractor(), Threshold: 1.5,
		Types: []ddos.AttackType{ddos.UDPFlood},
	}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := other.Restore(bytes.NewReader(good)); err == nil {
		t.Error("architecture mismatch: restore succeeded")
	}
}

// TestMonitorRestoreRejectsEngineCheckpoint pins the version gate: a bare
// Monitor must refuse a multi-shard file with a pointer to Engine.
func TestMonitorRestoreRejectsEngineCheckpoint(t *testing.T) {
	eng := warmEngine(t, Config{Monitor: tinyMonitorConfig(t), Shards: 2, Policy: Block}, 5)
	var ck bytes.Buffer
	if err := eng.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	mon, err := NewMonitor(tinyMonitorConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := mon.Restore(bytes.NewReader(ck.Bytes())); err == nil {
		t.Fatal("monitor restored an engine checkpoint")
	}
}

// sixTypeMonitor returns a monitor watching all six attack types that has
// observed every customer for steps steps.
func sixTypeMonitor(t *testing.T, customers []netip.Addr, steps int) *Monitor {
	t.Helper()
	cfg := tinyMonitorConfig(t)
	cfg.Types = nil
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	for s := 0; s < steps; s++ {
		for _, c := range customers {
			mon.ObserveStep(c, t0.Add(time.Duration(s)*time.Minute), udpFlows(c, s, t0))
		}
	}
	return mon
}

// TestRestoreRejectsDuplicateChannel: a checkpoint naming one
// (customer, attack type) twice is corrupt — two states for one channel,
// of which a reader could only keep one. A 48-channel blob with its first
// record appended again must be refused by all three readers (they share
// readChannels), each leaving its previous state untouched.
func TestRestoreRejectsDuplicateChannel(t *testing.T) {
	mon := sixTypeMonitor(t, testCustomers(8), 5)
	chans, err := monitorRawChans(mon)
	if err != nil {
		t.Fatal(err)
	}
	if len(chans) != 48 {
		t.Fatalf("%d channels, want 48", len(chans))
	}
	blob := buildMonitorBlob(append(chans, chans[0]))
	var before bytes.Buffer
	if err := mon.Checkpoint(&before); err != nil {
		t.Fatal(err)
	}
	if err := mon.Restore(bytes.NewReader(blob)); err == nil {
		t.Errorf("Monitor.Restore accepted a duplicated channel into %d channels", mon.Channels())
	}
	var after bytes.Buffer
	if err := mon.Checkpoint(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after.Bytes(), before.Bytes()) {
		t.Error("a refused Monitor.Restore changed the monitor")
	}
	cfg := tinyMonitorConfig(t)
	cfg.Types = nil
	eng, err := New(Config{Monitor: cfg, Shards: 2, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if err := eng.Restore(bytes.NewReader(blob)); err == nil {
		t.Error("Engine.Restore accepted a duplicated channel")
	}
	if st := eng.Stats(); st.Channels != 0 {
		t.Errorf("a refused Engine.Restore left %d channels in the engine", st.Channels)
	}
	// (RestoreCustomers merges shard by shard, each atomically: the shard
	// without the duplicate may have absorbed its channels.)
	if n, err := eng.RestoreCustomers(bytes.NewReader(blob), nil); err == nil {
		t.Errorf("Engine.RestoreCustomers accepted a duplicated channel (%d channels)", n)
	}
}

// TestMonitorRestoreSharesInputRecords: the six channels of a customer
// share one input record live, and a restored monitor must share them as
// well, not hold six equal copies. Restoring six channels of one customer
// therefore allocates fewer objects than restoring one channel each of six
// customers, whose inputs differ.
func TestMonitorRestoreSharesInputRecords(t *testing.T) {
	customers := testCustomers(6)
	oneCustomer := sixTypeMonitor(t, customers[:1], 13)
	sixCustomers, err := NewMonitor(tinyMonitorConfig(t)) // one type each
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	for s := 0; s < 13; s++ {
		for i, c := range customers {
			sixCustomers.ObserveStep(c, t0.Add(time.Duration(s)*time.Minute), udpFlows(c, s+i, t0))
		}
	}
	restoreAllocs := func(mon *Monitor) float64 {
		var ck bytes.Buffer
		if err := mon.Checkpoint(&ck); err != nil {
			t.Fatal(err)
		}
		if mon.Channels() != 6 {
			t.Fatalf("%d channels, want 6", mon.Channels())
		}
		cfg := tinyMonitorConfig(t)
		cfg.Types = nil
		fresh, err := NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := fresh.Restore(bytes.NewReader(ck.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
	}
	shared, distinct := restoreAllocs(oneCustomer), restoreAllocs(sixCustomers)
	if shared+5 > distinct {
		t.Fatalf("restoring one customer's six channels allocates %v objects, six customers' %v: the six do not share one input record", shared, distinct)
	}
}

// TestRestoreClaimedChannelCountAllocatesLazily: a checkpoint header's
// channel count is read before any channel is, so the readers must not
// size their tables by it — a 10-byte file claiming four million channels
// once made Monitor.Restore allocate hundreds of megabytes before failing,
// and the engine's segment scanner likewise.
func TestRestoreClaimedChannelCountAllocatesLazily(t *testing.T) {
	blob := append(append([]byte{}, monitorCkptMagic[:]...), 1, 0, 0, 0, 0x40, 0) // v1, 1<<22 channels
	mon, err := NewMonitor(tinyMonitorConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Monitor: tinyMonitorConfig(t), Shards: 1, Policy: Block})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for name, restore := range map[string]func() error{
		"Monitor.Restore": func() error { return mon.Restore(bytes.NewReader(blob)) },
		"Engine.Restore":  func() error { return eng.Restore(bytes.NewReader(blob)) },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := restore(); err == nil {
			t.Fatalf("%s accepted a header with no channels behind it", name)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s allocated %d bytes for a 10-byte checkpoint", name, grew)
		}
	}
}

// goldenMonitorDigests are the SHA-256s, per missing policy, of the alert
// counts and XMC1 checkpoints of the seeded six-type run below, recorded
// on the commit before a customer's channels shared one input record.
// Equal digests say the sharing — six channels on one record, missing
// steps batched, EndMitigation resets splitting a record, restores
// re-sharing it — moved no serving byte.
var goldenMonitorDigests = [...]string{
	core.MissingZero:  "477f3e91ff0eac9f1835d28004187c3f12e16cbaa80f95d8a555d0978463bec4",
	core.MissingCarry: "8649ef91fd9f39b817d356852642fa1a678747dffd2704e1ff5e7b557476bb89",
}

func TestMonitorGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; other ports may fuse multiply-adds")
	}
	for _, batched := range []bool{false, true} {
		for policy, want := range goldenMonitorDigests {
			cfg := tinyMonitorConfig(t)
			cfg.Types = nil
			cfg.MissingPolicy = core.MissingPolicy(policy)
			mon, err := NewMonitor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.New()
			ckpt := func() []byte {
				var b bytes.Buffer
				if err := mon.Checkpoint(&b); err != nil {
					t.Fatal(err)
				}
				sum.Write(b.Bytes())
				return b.Bytes()
			}
			// With batched set, the steps between two missing ones go
			// through the monitor as one batch, as an engine shard steps a
			// run of its mailbox.
			var run []stepIn
			flush := func() {
				mon.observeBatch(run, false)
				for _, st := range run {
					fmt.Fprintln(sum, len(st.alerts))
				}
				run = run[:0]
			}
			customers := testCustomers(5)
			t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
			for s := 0; s < 70; s++ {
				at := t0.Add(time.Duration(s) * time.Minute)
				for i, c := range customers {
					if (s+i)%7 == 3 {
						flush()
						mon.ObserveMissing(c, at)
						continue
					}
					if batched {
						run = append(run, stepIn{customer: c, at: at, flows: udpFlows(c, s+i, t0)})
						continue
					}
					fmt.Fprintln(sum, len(mon.ObserveStep(c, at, udpFlows(c, s+i, t0))))
				}
				flush()
				if s == 17 || s == 41 {
					mon.EndMitigation(customers[2], ddos.AttackType(3))
					mon.EndMitigation(customers[4], ddos.UDPFlood)
				}
				if s == 23 || s == 50 {
					b := ckpt()
					if mon, err = NewMonitor(cfg); err != nil {
						t.Fatal(err)
					}
					if err := mon.Restore(bytes.NewReader(b)); err != nil {
						t.Fatal(err)
					}
				}
			}
			ckpt()
			if got := hex.EncodeToString(sum.Sum(nil)); got != want {
				t.Errorf("batched=%v policy %d: monitor digest %s, want %s", batched, policy, got, want)
			}
		}
	}
}

// TestMonitorCheckpointAllocs pins Monitor.Checkpoint at a constant number
// of allocations per channel: every channel record, stream included, is
// encoded into one reused buffer, so what remains per channel is the
// address and the since time marshalling themselves.
func TestMonitorCheckpointAllocs(t *testing.T) {
	allocs := func(customers int) float64 {
		mon := sixTypeMonitor(t, testCustomers(customers), 5)
		return testing.AllocsPerRun(20, func() { mon.Checkpoint(io.Discard) })
	}
	small, large := allocs(8), allocs(16)
	if perChan := (large - small) / 48; perChan > 2 {
		t.Errorf("Monitor.Checkpoint allocates %.2f per channel (%v at 48 channels, %v at 96), want ≤ 2", perChan, small, large)
	}
}
