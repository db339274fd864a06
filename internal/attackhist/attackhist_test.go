package attackhist

import (
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/ddos"
)

var (
	t0 = time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	c1 = netip.MustParseAddr("23.1.1.1")
	c2 = netip.MustParseAddr("23.1.1.2")
	c3 = netip.MustParseAddr("23.1.1.3")
	a1 = netip.MustParseAddr("11.0.0.1")
	a2 = netip.MustParseAddr("11.0.0.2")
	a3 = netip.MustParseAddr("11.0.0.3")
)

func alert(victim netip.Addr, at ddos.AttackType, sev ddos.Severity, detected time.Time) ddos.Alert {
	return ddos.Alert{
		Sig:         ddos.SignatureFor(at, victim),
		DetectedAt:  detected,
		MitigatedAt: detected.Add(10 * time.Minute),
		Severity:    sev,
		Source:      "test",
	}
}

func TestWasAttackerTimeAware(t *testing.T) {
	r := NewRegistry()
	r.RecordAttacker(c1, a1, t0)
	if r.WasAttacker(c1, a1, t0) {
		t.Fatal("not an attacker strictly before its first observation")
	}
	if !r.WasAttacker(c1, a1, t0.Add(time.Minute)) {
		t.Fatal("must be an attacker after first observation")
	}
	if r.WasAttacker(c2, a1, t0.Add(time.Hour)) {
		t.Fatal("A2 is per-customer; other customers must not match")
	}
}

func TestRecordAttackerKeepsEarliest(t *testing.T) {
	r := NewRegistry()
	r.RecordAttacker(c1, a1, t0.Add(time.Hour))
	r.RecordAttacker(c1, a1, t0) // earlier observation arrives late
	if !r.WasAttacker(c1, a1, t0.Add(time.Minute)) {
		t.Fatal("earliest observation must win")
	}
}

func TestAttackerCount(t *testing.T) {
	r := NewRegistry()
	r.RecordAttacker(c1, a1, t0)
	r.RecordAttacker(c1, a2, t0.Add(2*time.Hour))
	if got := r.AttackerCount(c1, t0.Add(time.Hour)); got != 1 {
		t.Fatalf("count = %d, want 1", got)
	}
	if got := r.AttackerCount(c1, t0.Add(3*time.Hour)); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestAlertsBeforeSortedAndFiltered(t *testing.T) {
	r := NewRegistry()
	// Insert out of order.
	r.RecordAlert(alert(c1, ddos.UDPFlood, ddos.SeverityLow, t0.Add(2*time.Hour)))
	r.RecordAlert(alert(c1, ddos.TCPSYN, ddos.SeverityHigh, t0))
	r.RecordAlert(alert(c1, ddos.UDPFlood, ddos.SeverityMedium, t0.Add(time.Hour)))

	got := r.AlertsBefore(c1, t0.Add(90*time.Minute))
	if len(got) != 2 {
		t.Fatalf("len = %d, want 2", len(got))
	}
	if got[0].Sig.Type != ddos.TCPSYN || got[1].Sig.Type != ddos.UDPFlood {
		t.Fatalf("order wrong: %v then %v", got[0].Sig.Type, got[1].Sig.Type)
	}
}

func TestSeverityHistogram(t *testing.T) {
	r := NewRegistry()
	r.RecordAlert(alert(c1, ddos.UDPFlood, ddos.SeverityLow, t0))
	r.RecordAlert(alert(c1, ddos.UDPFlood, ddos.SeverityLow, t0.Add(time.Hour)))
	r.RecordAlert(alert(c1, ddos.DNSAmp, ddos.SeverityHigh, t0.Add(2*time.Hour)))
	// Outside the window:
	r.RecordAlert(alert(c1, ddos.ICMPFlood, ddos.SeverityLow, t0.Add(-100*time.Hour)))

	h := r.SeverityHistogram(c1, t0.Add(3*time.Hour), 24*time.Hour)
	if len(h) != 18 {
		t.Fatalf("A4 block must have 18 features, got %d", len(h))
	}
	idxUDPLow := int(ddos.UDPFlood)*3 + int(ddos.SeverityLow)
	idxDNSHigh := int(ddos.DNSAmp)*3 + int(ddos.SeverityHigh)
	idxICMPLow := int(ddos.ICMPFlood)*3 + int(ddos.SeverityLow)
	if h[idxUDPLow] != 2 || h[idxDNSHigh] != 1 || h[idxICMPLow] != 0 {
		t.Fatalf("histogram wrong: %v", h)
	}
	var total float64
	for _, v := range h {
		total += v
	}
	if total != 3 {
		t.Fatalf("total = %v, want 3", total)
	}
}

func TestTransitionMatrix(t *testing.T) {
	r := NewRegistry()
	// c1: UDP → UDP → DNSAmp ; c2: SYN → RST
	r.RecordAlert(alert(c1, ddos.UDPFlood, ddos.SeverityLow, t0))
	r.RecordAlert(alert(c1, ddos.UDPFlood, ddos.SeverityLow, t0.Add(time.Hour)))
	r.RecordAlert(alert(c1, ddos.DNSAmp, ddos.SeverityLow, t0.Add(2*time.Hour)))
	r.RecordAlert(alert(c2, ddos.TCPSYN, ddos.SeverityLow, t0))
	r.RecordAlert(alert(c2, ddos.TCPRST, ddos.SeverityLow, t0.Add(time.Hour)))

	m := r.TransitionMatrix(t0.Add(24 * time.Hour))
	if m[ddos.UDPFlood][ddos.UDPFlood] != 1 || m[ddos.UDPFlood][ddos.DNSAmp] != 1 ||
		m[ddos.TCPSYN][ddos.TCPRST] != 1 {
		t.Fatalf("matrix wrong: %v", m)
	}
	// Transitions after the as-of time must not count.
	m2 := r.TransitionMatrix(t0.Add(90 * time.Minute))
	if m2[ddos.UDPFlood][ddos.DNSAmp] != 0 {
		t.Fatal("as-of filtering failed")
	}
}

func TestClusteringVariants(t *testing.T) {
	r := NewRegistry()
	// c1 attacked by {a1,a2}, c2 by {a1}, c3 by {a3} — all within window.
	r.RecordAttacker(c1, a1, t0)
	r.RecordAttacker(c1, a2, t0)
	r.RecordAttacker(c2, a1, t0)
	r.RecordAttacker(c3, a3, t0)
	at := t0.Add(time.Hour)
	w := 2 * time.Hour

	// c1 vs c2: inter=1, union=2, min=1, max=2. c1 vs c3: no overlap (skipped).
	if got := r.Clustering(c1, at, w, ClusteringDot); got != 0.5 {
		t.Fatalf("dot = %v, want 0.5", got)
	}
	if got := r.Clustering(c1, at, w, ClusteringMin); got != 1 {
		t.Fatalf("min = %v, want 1", got)
	}
	if got := r.Clustering(c1, at, w, ClusteringMax); got != 0.5 {
		t.Fatalf("max = %v, want 0.5", got)
	}
	// c3 shares no attacker with anyone.
	if got := r.Clustering(c3, at, w, ClusteringDot); got != 0 {
		t.Fatalf("isolated customer must have 0, got %v", got)
	}
	// Unknown customer.
	if got := r.Clustering(netip.MustParseAddr("9.9.9.9"), at, w, ClusteringDot); got != 0 {
		t.Fatalf("unknown customer must have 0, got %v", got)
	}
}

func TestClusteringWindowFiltering(t *testing.T) {
	r := NewRegistry()
	r.RecordAttacker(c1, a1, t0)
	r.RecordAttacker(c2, a1, t0.Add(-48*time.Hour)) // outside window
	got := r.Clustering(c1, t0.Add(time.Hour), 2*time.Hour, ClusteringDot)
	if got != 0 {
		t.Fatalf("stale observations must not contribute, got %v", got)
	}
}

func TestClusteringGrowsAsAttackersConverge(t *testing.T) {
	// The Fig 16 behaviour: as the same attackers hit more customers, the
	// coefficient rises.
	r := NewRegistry()
	r.RecordAttacker(c1, a1, t0)
	r.RecordAttacker(c1, a2, t0)
	r.RecordAttacker(c2, a1, t0.Add(5*time.Minute))
	before := r.Clustering(c1, t0.Add(6*time.Minute), time.Hour, ClusteringDot)
	r.RecordAttacker(c2, a2, t0.Add(10*time.Minute))
	after := r.Clustering(c1, t0.Add(11*time.Minute), time.Hour, ClusteringDot)
	if !(after > before) {
		t.Fatalf("coefficient must grow: before %v after %v", before, after)
	}
}

func TestCustomersDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.RecordAttacker(c2, a1, t0)
	r.RecordAttacker(c1, a1, t0)
	got := r.Customers()
	if len(got) != 2 || got[0] != c1 || got[1] != c2 {
		t.Fatalf("got %v", got)
	}
}

func TestConcurrentRegistry(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := netip.AddrFrom4([4]byte{23, 0, 0, byte(g + 1)})
			for i := 0; i < 100; i++ {
				r.RecordAttacker(c, netip.AddrFrom4([4]byte{11, 0, byte(g), byte(i + 1)}), t0)
				r.RecordAlert(alert(c, ddos.UDPFlood, ddos.SeverityLow, t0.Add(time.Duration(i)*time.Minute)))
				r.WasAttacker(c, a1, t0)
				r.Clustering(c, t0.Add(time.Hour), time.Hour, ClusteringDot)
			}
		}(g)
	}
	wg.Wait()
	if len(r.Customers()) != 8 {
		t.Fatalf("customers = %d", len(r.Customers()))
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := NewRegistry()
	r.RecordAttacker(c1, a1, t0)
	r.RecordAlert(alert(c1, ddos.UDPFlood, ddos.SeverityLow, t0))
	c := r.Clone()
	c.RecordAttacker(c1, a2, t0)
	c.RecordAlert(alert(c1, ddos.DNSAmp, ddos.SeverityLow, t0.Add(time.Hour)))
	if r.WasAttacker(c1, a2, t0.Add(time.Minute)) {
		t.Fatal("clone writes leaked into the original")
	}
	if len(r.AlertsBefore(c1, t0.Add(2*time.Hour))) != 1 {
		t.Fatal("clone alert leaked into the original")
	}
	if !c.WasAttacker(c1, a1, t0.Add(time.Minute)) {
		t.Fatal("clone must carry original data")
	}
}

// obs is one RecordAttacker call of the randomized fixtures below.
type obs struct {
	customer, src netip.Addr
	at            time.Time
}

// randomObservations draws attacker observations for nCustomers customers
// from a shared source pool, so neighborhoods overlap, with times spread
// over ±spread around t0.
func randomObservations(rng *rand.Rand, nCustomers, perCustomer, pool int, spread time.Duration) []obs {
	var out []obs
	for c := 0; c < nCustomers; c++ {
		customer := netip.AddrFrom4([4]byte{23, 1, byte(c >> 8), byte(c)})
		for k := 0; k < perCustomer; k++ {
			s := rng.Intn(pool)
			out = append(out, obs{
				customer: customer,
				src:      netip.AddrFrom4([4]byte{11, 0, byte(s >> 8), byte(s)}),
				at:       t0.Add(time.Duration(rng.Int63n(int64(2*spread))) - spread),
			})
		}
	}
	return out
}

func fill(list []obs) *Registry {
	r := NewRegistry()
	for _, o := range list {
		r.RecordAttacker(o.customer, o.src, o.at)
	}
	return r
}

// referenceClustering is the definition, computed the way the registry
// used to: materialize each customer's in-window neighborhood as a set,
// intersect set against set, one variant per call — with the other
// customers visited in address order, which the old code left to map
// iteration.
func referenceClustering(list []obs, customer netip.Addr, t time.Time, window time.Duration, v ClusteringVariant) float64 {
	lo := t.Add(-window)
	type iv struct{ first, last time.Time }
	spans := map[netip.Addr]map[netip.Addr]iv{}
	for _, o := range list {
		if spans[o.customer] == nil {
			spans[o.customer] = map[netip.Addr]iv{}
		}
		sp, ok := spans[o.customer][o.src]
		if !ok {
			sp = iv{o.at, o.at}
		}
		if o.at.Before(sp.first) {
			sp.first = o.at
		}
		if o.at.After(sp.last) {
			sp.last = o.at
		}
		spans[o.customer][o.src] = sp
	}
	hood := func(c netip.Addr) map[netip.Addr]bool {
		out := map[netip.Addr]bool{}
		for src, sp := range spans[c] {
			if sp.first.Before(t) && !sp.last.Before(lo) {
				out[src] = true
			}
		}
		return out
	}
	mine := hood(customer)
	if len(mine) == 0 {
		return 0
	}
	var others []netip.Addr
	for c := range spans {
		if c != customer {
			others = append(others, c)
		}
	}
	slices.SortFunc(others, netip.Addr.Compare)
	var sum float64
	n := 0
	for _, other := range others {
		theirs := hood(other)
		inter := 0
		for a := range mine {
			if theirs[a] {
				inter++
			}
		}
		if inter == 0 {
			continue
		}
		var denom int
		switch v {
		case ClusteringMin:
			denom = min(len(mine), len(theirs))
		case ClusteringMax:
			denom = max(len(mine), len(theirs))
		default:
			denom = len(mine) + len(theirs) - inter
		}
		sum += float64(inter) / float64(denom)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// TestClusteringsMatchesDefinition pins the one-pass triple to the
// set-building definition, bit for bit, on the two hand fixtures above and
// on random overlapping graphs with observations in and out of the window.
func TestClusteringsMatchesDefinition(t *testing.T) {
	fixtures := [][]obs{
		{{c1, a1, t0}, {c1, a2, t0}, {c2, a1, t0}, {c3, a3, t0}}, // TestClusteringVariants
		{{c1, a1, t0}, {c2, a1, t0.Add(-48 * time.Hour)}},        // TestClusteringWindowFiltering
		randomObservations(rand.New(rand.NewSource(1)), 12, 40, 90, 36*time.Hour),
		randomObservations(rand.New(rand.NewSource(2)), 40, 7, 50, 4*time.Hour),
	}
	for fi, list := range fixtures {
		r := fill(list)
		for _, window := range []time.Duration{2 * time.Hour, 24 * time.Hour} {
			for _, c := range append(r.Customers(), netip.MustParseAddr("9.9.9.9")) {
				at := t0.Add(time.Hour)
				dot, minc, maxc := r.Clusterings(c, at, window)
				for v, got := range []float64{dot, minc, maxc} {
					want := referenceClustering(list, c, at, window, ClusteringVariant(v))
					if got != want || r.Clustering(c, at, window, ClusteringVariant(v)) != want {
						t.Fatalf("fixture %d customer %v window %v variant %d: got %v, want %v", fi, c, window, v, got, want)
					}
				}
			}
		}
	}
}

// TestClusteringDeterministic: A5 used to sum over a map range, so one
// registry could return values differing in the last bit from call to call.
// Repeated calls, and registries filled with the same observations in
// shuffled order, must agree exactly.
func TestClusteringDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	list := randomObservations(rng, 24, 30, 80, 12*time.Hour)
	r := fill(list)
	customer, at, window := list[0].customer, t0.Add(13*time.Hour), 48*time.Hour
	d0, m0, x0 := r.Clusterings(customer, at, window)
	if d0 == 0 || m0 == 0 || x0 == 0 {
		t.Fatal("fixture must produce non-zero coefficients")
	}
	for i := 0; i < 200; i++ {
		if d, m, x := r.Clusterings(customer, at, window); d != d0 || m != m0 || x != x0 {
			t.Fatalf("call %d: (%v %v %v) != (%v %v %v)", i, d, m, x, d0, m0, x0)
		}
	}
	for i := 0; i < 20; i++ {
		shuffled := slices.Clone(list)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		r2 := fill(shuffled)
		if !slices.Equal(r2.Customers(), r.Customers()) {
			t.Fatal("customer order depends on insertion order")
		}
		if d, m, x := r2.Clusterings(customer, at, window); d != d0 || m != m0 || x != x0 {
			t.Fatalf("shuffle %d: (%v %v %v) != (%v %v %v)", i, d, m, x, d0, m0, x0)
		}
		if d, m, x := r2.Clone().Clusterings(customer, at, window); d != d0 || m != m0 || x != x0 {
			t.Fatal("clone disagrees")
		}
	}
}

// TestNonIPv4Sources: a source that is neither IPv4 nor 4-in-6 is never a
// previous attacker; a 4-in-6 source is its IPv4 form.
func TestNonIPv4Sources(t *testing.T) {
	r := NewRegistry()
	v6 := netip.MustParseAddr("2001:db8::1")
	mapped := netip.MustParseAddr("::ffff:11.0.0.1") // a1
	r.RecordAttacker(c1, v6, t0)
	r.RecordAttacker(c1, netip.Addr{}, t0)
	if len(r.Customers()) != 0 || r.AttackerCount(c1, t0.Add(time.Hour)) != 0 {
		t.Fatal("non-IPv4 sources must not be recorded")
	}
	r.RecordAttacker(c1, mapped, t0)
	later := t0.Add(time.Hour)
	if !r.WasAttacker(c1, a1, later) || !r.WasAttacker(c1, mapped, later) {
		t.Fatal("a 4-in-6 source is its IPv4 form")
	}
	if r.WasAttacker(c1, v6, later) || r.WasAttacker(c1, netip.Addr{}, later) {
		t.Fatal("non-IPv4 sources are never previous attackers")
	}
}

// TestMarkAttackersMatchesWasAttacker pins the bulk A2 test to the
// per-source one, including the strict "before t" boundary.
func TestMarkAttackersMatchesWasAttacker(t *testing.T) {
	list := randomObservations(rand.New(rand.NewSource(4)), 3, 60, 120, 2*time.Hour)
	r := fill(list)
	var srcs []uint32
	var addrs []netip.Addr
	for s := 0; s < 120; s++ {
		addrs = append(addrs, netip.AddrFrom4([4]byte{11, 0, 0, byte(s)}))
		srcs = append(srcs, 11<<24|uint32(s))
	}
	for _, c := range append(r.Customers(), netip.MustParseAddr("9.9.9.9")) {
		for _, at := range []time.Time{t0.Add(-3 * time.Hour), t0, list[0].at, t0.Add(3 * time.Hour)} {
			marks := make([]uint8, len(srcs))
			r.MarkAttackers(marks, 4, c, srcs, at)
			for i, a := range addrs {
				if want := r.WasAttacker(c, a, at); (marks[i] == 4) != want || marks[i]&^4 != 0 {
					t.Fatalf("customer %v src %v at %v: mark %d, WasAttacker %v", c, a, at, marks[i], want)
				}
			}
		}
	}
}

// BenchmarkClustering times one A5 evaluation — all three coefficients —
// for one of 32 customers whose attackers come from one shared pool.
func BenchmarkClustering(b *testing.B) {
	list := randomObservations(rand.New(rand.NewSource(5)), 32, 48, 192, 24*time.Hour)
	r := fill(list)
	at, window := t0.Add(25*time.Hour), 7*24*time.Hour
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkDot, sinkMin, sinkMax = r.Clusterings(list[0].customer, at, window)
	}
}

var sinkDot, sinkMin, sinkMax float64
