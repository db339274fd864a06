package engine

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
)

// fuzzMonitorConfig watches two attack types through one small model (3
// features, Hidden 2, pools 2 and 4), so a channel record is a few hundred
// bytes and a customer's two channels share an input record.
func fuzzMonitorConfig(t testing.TB) MonitorConfig {
	t.Helper()
	mcfg := core.DefaultConfig(3)
	mcfg.Hidden, mcfg.Window = 2, 3
	mcfg.PoolShort, mcfg.PoolMed, mcfg.PoolLong = 1, 2, 4
	m, err := core.New(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tinyMonitorConfig(t)
	cfg.Default = m
	cfg.Types = []ddos.AttackType{ddos.UDPFlood, ddos.TCPSYN}
	return cfg
}

// FuzzMonitorRestore feeds arbitrary bytes to Monitor.Restore, the XMC1
// version-1 reader (Engine.Restore and RestoreCustomers reach the same
// channel reader). Whatever the input, Restore must return an error or
// load; a checkpoint of what it loaded must restore into a second monitor
// whose checkpoint is the same bytes, and the two must still agree byte
// for byte after a missing step for every customer. The committed corpus
// (testdata/fuzz/FuzzMonitorRestore) holds a two-customer checkpoint with
// the pools part full, truncations of it, a wrong vector length, an
// out-of-range bufN, a duplicated channel and a NaN state.
func FuzzMonitorRestore(f *testing.F) {
	cfg := fuzzMonitorConfig(f)
	ckpt := func(t *testing.T, m *Monitor) []byte {
		var buf bytes.Buffer
		if err := m.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(bytes.NewReader(data)); err != nil {
			return
		}
		a := ckpt(t, m)
		m2, err := NewMonitor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.Restore(bytes.NewReader(a)); err != nil {
			t.Fatalf("restoring a checkpoint of a restored monitor: %v", err)
		}
		if !bytes.Equal(ckpt(t, m2), a) {
			t.Fatal("checkpoint/restore/checkpoint changed the bytes")
		}
		at := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
		for c := range m.custs {
			m.ObserveMissing(c, at)
			m2.ObserveMissing(c, at)
		}
		if !bytes.Equal(ckpt(t, m2), ckpt(t, m)) {
			t.Fatal("restored and original monitors diverged")
		}
	})
}

// FuzzEngineRestore feeds arbitrary bytes to the XMC1 version-2 framing
// (checkpointSegments, scanMonitorBody) through both engine readers:
// Engine.Restore and Engine.RestoreCustomers, each onto a two-shard
// engine already holding two customers. Whatever the input, a reader must
// return an error or load. A refused file must leave the engine's state as
// it was; a loaded engine's checkpoint must restore into a fresh engine
// whose checkpoint is the same bytes. The committed corpus
// (testdata/fuzz/FuzzEngineRestore) holds a valid three-customer
// version-2 file, a truncated segment, an overflowing segment count, a
// customer whose channels sit in two segments, and one channel in two
// segments — which RestoreCustomers once refused only on the shard that
// owns it, after the other shard had already taken its customers.
func FuzzEngineRestore(f *testing.F) {
	cfg := Config{Monitor: fuzzMonitorConfig(f), Shards: 2, Policy: Block}
	var base bytes.Buffer
	if err := fuzzMonitor(f, cfg.Monitor, testCustomers(2)).Checkpoint(&base); err != nil {
		f.Fatal(err)
	}
	engine := func(t *testing.T, state []byte) *Engine {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		if err := e.Restore(bytes.NewReader(state)); err != nil {
			t.Fatal(err)
		}
		return e
	}
	ckpt := func(t *testing.T, e *Engine) []byte {
		var buf bytes.Buffer
		if err := e.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	readers := []struct {
		name    string
		restore func(*Engine, []byte) error
	}{
		{"Restore", func(e *Engine, data []byte) error { return e.Restore(bytes.NewReader(data)) }},
		{"RestoreCustomers", func(e *Engine, data []byte) error {
			_, err := e.RestoreCustomers(bytes.NewReader(data), nil)
			return err
		}},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rd := range readers {
			e := engine(t, base.Bytes())
			before := ckpt(t, e)
			if err := rd.restore(e, data); err != nil {
				if !bytes.Equal(ckpt(t, e), before) {
					t.Fatalf("a refused %s changed the engine's state: %v", rd.name, err)
				}
				continue
			}
			a := ckpt(t, e)
			if !bytes.Equal(ckpt(t, engine(t, a)), a) {
				t.Fatalf("%s: checkpoint/restore/checkpoint changed the bytes", rd.name)
			}
		}
	})
}

// fuzzMonitor returns a monitor over cfg (fuzzMonitorConfig) holding both
// channels of every customer, stepped three times on one seeded input per
// customer and step, so the pools are part full and each customer's
// channels share an input record.
func fuzzMonitor(t testing.TB, cfg MonitorConfig, customers []netip.Addr) *Monitor {
	t.Helper()
	mon, err := NewMonitor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lane := mon.laneOf[cfg.Types[0]].runner
	rng := rand.New(rand.NewSource(1))
	for _, c := range customers {
		streams := make([]*core.Stream, len(cfg.Types))
		xs := make([][]float64, len(streams))
		rec := new(custChans)
		mon.custs[c] = rec
		for i, at := range cfg.Types {
			streams[i] = lane.NewStream()
			rec[at].stream = streams[i]
			mon.nchans++
		}
		for s := 0; s < 3; s++ {
			x := []float64{rng.NormFloat64(), rng.NormFloat64(), 0}
			for i := range xs {
				xs[i] = x
			}
			lane.Push(streams, xs, nil)
		}
	}
	return mon
}
