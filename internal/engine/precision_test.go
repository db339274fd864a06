package engine

import (
	"bytes"
	"net/netip"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/features"
)

// referenceAlerts is the float64 oracle of a single-type monitor, built
// here from nothing but sequential core.Streams: the same normalised
// feature vectors the monitor computes are pushed through one
// core.NewStream per customer, and the monitor's firing rule (warm,
// S < threshold, signature traffic present, not already diverted) is
// restated in a dozen lines. It shares no lane, no batching and no float32
// kernel with the code under test.
func referenceAlerts(cfg MonitorConfig, customers []netip.Addr, batches []stepBatch) map[alertKey]bool {
	atype := cfg.Types[0]
	type channel struct {
		stream     *core.Stream
		mitigating bool
		since      time.Time
	}
	chans := map[netip.Addr]*channel{}
	got := map[alertKey]bool{}
	var scratch features.Scratch
	for _, b := range batches {
		for _, c := range customers {
			ch := chans[c]
			if ch != nil && ch.mitigating && b.at.Sub(ch.since) >= cfg.MitigationTimeout {
				ch.mitigating = false
			}
			flows, ok := b.flows[c]
			if !ok {
				if ch != nil {
					ch.stream.PushMissing(cfg.MissingPolicy)
				}
				continue
			}
			if ch == nil {
				ch = &channel{stream: core.NewStream(cfg.Default)}
				chans[c] = ch
			}
			feat := cfg.Extractor.ExtractInto(nil, &scratch, c, b.at, flows)
			features.Normalize(feat)
			surv := ch.stream.Push(feat)
			sig := ddos.SignatureFor(atype, c)
			matched := false
			for _, r := range flows {
				matched = matched || sig.Matches(r)
			}
			if !ch.mitigating && ch.stream.Warm() && surv < cfg.Threshold && matched {
				ch.mitigating, ch.since = true, b.at
				got[alertKey{c, atype, b.at}] = true
			}
		}
	}
	return got
}

// TestMonitorFloat32CheckpointRoundTrip checkpoints a monitor at a
// pooling-unaligned step, restores into a fresh monitor, continues both,
// and requires byte-identical final checkpoints — the engine-level proof
// that the float32 restore path (lane arena included) is bitwise lossless.
func TestMonitorFloat32CheckpointRoundTrip(t *testing.T) {
	model := tinyModel(t)
	ext := tinyExtractor()
	mkCfg := func() MonitorConfig {
		return MonitorConfig{
			Default:           model,
			Extractor:         ext,
			Threshold:         1.5,
			Types:             []ddos.AttackType{ddos.UDPFlood, ddos.TCPSYN},
			MitigationTimeout: 10 * time.Minute,
		}
	}
	orig, err := NewMonitor(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	customer := netip.MustParseAddr("203.0.113.7")
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 9; i++ {
		orig.ObserveStep(customer, t0.Add(time.Duration(i)*time.Minute), udpFlows(customer, i, t0))
	}
	var ck bytes.Buffer
	if err := orig.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	restored, err := NewMonitor(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 30; i++ {
		at := t0.Add(time.Duration(i) * time.Minute)
		if i == 17 {
			orig.EndMitigation(customer, ddos.UDPFlood)
			restored.EndMitigation(customer, ddos.UDPFlood)
		}
		if i%7 == 3 {
			orig.ObserveMissing(customer, at)
			restored.ObserveMissing(customer, at)
			continue
		}
		flows := udpFlows(customer, i, t0)
		a := orig.ObserveStep(customer, at, flows)
		b := restored.ObserveStep(customer, at, flows)
		if len(a) != len(b) {
			t.Fatalf("step %d: alert count diverged: %d vs %d", i, len(a), len(b))
		}
	}
	var ca, cb bytes.Buffer
	if err := orig.Checkpoint(&ca); err != nil {
		t.Fatal(err)
	}
	if err := restored.Checkpoint(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatal("post-continuation float32 monitor checkpoints differ")
	}
}
