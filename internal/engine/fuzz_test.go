package engine

import (
	"bytes"
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
		seen := map[netip.Addr]bool{}
		for k := range m.chans {
			if !seen[k.customer] {
				seen[k.customer] = true
				m.ObserveMissing(k.customer, at)
				m2.ObserveMissing(k.customer, at)
			}
		}
		if !bytes.Equal(ckpt(t, m2), ckpt(t, m)) {
			t.Fatal("restored and original monitors diverged")
		}
	})
}
