package attackhist

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/ddos"
)

func TestPersistRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.RecordAttacker(c1, a1, t0)
	r.RecordAttacker(c1, a1, t0.Add(3*time.Hour)) // extends last-seen
	r.RecordAttacker(c2, a2, t0.Add(time.Hour))
	r.RecordAlert(alert(c1, ddos.UDPFlood, ddos.SeverityHigh, t0))
	r.RecordAlert(alert(c2, ddos.TCPSYN, ddos.SeverityLow, t0.Add(2*time.Hour)))

	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	if err := r2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !r2.WasAttacker(c1, a1, t0.Add(time.Minute)) || !r2.WasAttacker(c2, a2, t0.Add(2*time.Hour)) {
		t.Fatal("attackers lost in round trip")
	}
	// Last-seen must survive: clustering with a window anchored after the
	// re-observation still sees the pair.
	r2.RecordAttacker(c3, a1, t0.Add(3*time.Hour))
	if r2.Clustering(c1, t0.Add(4*time.Hour), 2*time.Hour, ClusteringDot) != 1 {
		t.Fatal("last-seen time lost in round trip")
	}
	alerts := r2.AlertsBefore(c1, t0.Add(24*time.Hour))
	if len(alerts) != 1 || alerts[0].Sig.Type != ddos.UDPFlood || alerts[0].Severity != ddos.SeverityHigh {
		t.Fatalf("alerts lost: %+v", alerts)
	}
}

func TestPersistDeterministicOutput(t *testing.T) {
	mk := func() *Registry {
		r := NewRegistry()
		r.RecordAttacker(c2, a3, t0)
		r.RecordAttacker(c1, a2, t0)
		r.RecordAttacker(c1, a1, t0)
		r.RecordAlert(alert(c1, ddos.DNSAmp, ddos.SeverityLow, t0))
		return r
	}
	var b1, b2 bytes.Buffer
	if err := mk().Save(&b1); err != nil {
		t.Fatal(err)
	}
	if err := mk().Save(&b2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("snapshots must be deterministic")
	}
}

func TestPersistRejectsGarbage(t *testing.T) {
	for name, input := range map[string]string{
		"empty":      "",
		"bad-header": "{\"format\":\"wrong\"}\n",
		"bad-json":   "{\"format\":\"xatu-attackhist-1\"}\nnot json\n",
		"bad-kind":   "{\"format\":\"xatu-attackhist-1\"}\n{\"k\":\"mystery\"}\n",
		"bad-addr":   "{\"format\":\"xatu-attackhist-1\"}\n{\"k\":\"attacker\",\"customer\":\"x\",\"src\":\"y\"}\n",
		"bad-type":   "{\"format\":\"xatu-attackhist-1\"}\n{\"k\":\"alert\",\"victim\":\"23.1.1.1\",\"type\":99}\n",
	} {
		r := NewRegistry()
		if err := r.Load(strings.NewReader(input)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestPersistMergesIntoExisting(t *testing.T) {
	r := NewRegistry()
	r.RecordAttacker(c1, a1, t0)
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	r2.RecordAttacker(c3, a3, t0)
	if err := r2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !r2.WasAttacker(c1, a1, t0.Add(time.Minute)) || !r2.WasAttacker(c3, a3, t0.Add(time.Minute)) {
		t.Fatal("merge must keep both old and loaded entries")
	}
}
