package blocklist

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"
)

var t0 = time.Date(2019, 4, 24, 0, 0, 0, 0, time.UTC)

func TestSubnet24(t *testing.T) {
	got, ok := subnet24(netip.MustParseAddr("11.22.33.44"))
	if !ok || got != 11<<24|22<<16|33<<8 {
		t.Fatalf("got %#x, %v", got, ok)
	}
}

// TestNonIPv4Sources: a source that is neither IPv4 nor 4-in-6 used to
// panic in As4; it can be neither listed nor found listed. A 4-in-6 source
// is its IPv4 form.
func TestNonIPv4Sources(t *testing.T) {
	r := NewRegistry()
	v4 := netip.MustParseAddr("11.22.33.44")
	mapped := netip.MustParseAddr("::ffff:11.22.33.99")
	v6 := netip.MustParseAddr("2001:db8::1")
	r.Add(Bot, v4, t0, 0)
	r.Add(Scanner, v6, t0, 0)
	r.Add(Scanner, netip.Addr{}, t0, 0)
	if n := r.Size(); n[Scanner] != 0 || n[Bot] != 1 {
		t.Fatalf("non-IPv4 adds must not be stored: %v", n)
	}
	for _, a := range []netip.Addr{v6, {}} {
		if r.AnyListedAt(a, t0) || r.ListedAt(Bot, a, t0) || r.Categories(a, t0) != nil {
			t.Fatalf("%v must never be listed", a)
		}
	}
	if !r.AnyListedAt(mapped, t0) || !r.ListedAt(Bot, mapped, t0) || len(r.Categories(mapped, t0)) != 1 {
		t.Fatal("a 4-in-6 source is its IPv4 form")
	}
	r.Add(Scanner, mapped, t0, 0)
	if !r.ListedAt(Scanner, v4, t0) {
		t.Fatal("listing a 4-in-6 address lists its IPv4 /24")
	}
}

// TestMarkListedMatchesPerSource pins the bulk test to the per-source
// ones, with and without a category filter, across listing and expiry.
func TestMarkListedMatchesPerSource(t *testing.T) {
	r := NewRegistry()
	var srcs []uint32
	var addrs []netip.Addr
	for i := 0; i < 64; i++ {
		a := netip.AddrFrom4([4]byte{11, byte(i), 3, byte(i)})
		addrs = append(addrs, a)
		srcs = append(srcs, 11<<24|uint32(i)<<16|3<<8|uint32(i))
		switch i % 4 {
		case 0:
			r.Add(Category(i%int(NumCategories)), a, t0, 0)
		case 1:
			r.Add(Bot, a, t0.Add(time.Hour), 2*time.Hour)
		case 2:
			r.Add(Scanner, a, t0, time.Hour)
			r.Add(Reflector, a, t0.Add(2*time.Hour), 0)
		}
	}
	filter := []Category{Bot, Reflector, Category(-1), NumCategories}
	for _, at := range []time.Time{t0.Add(-time.Minute), t0, t0.Add(time.Hour), t0.Add(90 * time.Minute), t0.Add(4 * time.Hour)} {
		marks := make([]uint8, len(srcs))
		r.MarkListed(marks, 1, srcs, at, nil)
		r.MarkListed(marks, 2, srcs, at, filter)
		for i, a := range addrs {
			wantAny := r.AnyListedAt(a, at)
			wantFiltered := r.ListedAt(Bot, a, at) || r.ListedAt(Reflector, a, at)
			if (marks[i]&1 != 0) != wantAny || (marks[i]&2 != 0) != wantFiltered {
				t.Fatalf("%v at %v: marks %02b, want any=%v filtered=%v", a, at, marks[i], wantAny, wantFiltered)
			}
		}
	}
}

func TestAddAndLookupAggregatesTo24(t *testing.T) {
	r := NewRegistry()
	r.Add(Bot, netip.MustParseAddr("11.22.33.44"), t0, 0)
	// Any address in the same /24 must hit.
	if !r.ListedAt(Bot, netip.MustParseAddr("11.22.33.200"), t0.Add(time.Hour)) {
		t.Fatal("same /24 must be listed")
	}
	// Neighboring /24 must not.
	if r.ListedAt(Bot, netip.MustParseAddr("11.22.34.44"), t0.Add(time.Hour)) {
		t.Fatal("different /24 must not be listed")
	}
	// Different category must not.
	if r.ListedAt(Scanner, netip.MustParseAddr("11.22.33.44"), t0.Add(time.Hour)) {
		t.Fatal("different category must not be listed")
	}
}

func TestListedAtRespectsListingTime(t *testing.T) {
	r := NewRegistry()
	r.Add(DDoSSource, netip.MustParseAddr("45.1.1.1"), t0, 0)
	if r.ListedAt(DDoSSource, netip.MustParseAddr("45.1.1.1"), t0.Add(-time.Minute)) {
		t.Fatal("must not be listed before listing time")
	}
	if !r.ListedAt(DDoSSource, netip.MustParseAddr("45.1.1.1"), t0) {
		t.Fatal("must be listed exactly at listing time")
	}
}

func TestExpiry(t *testing.T) {
	r := NewRegistry()
	r.Add(Scanner, netip.MustParseAddr("45.1.1.1"), t0, 24*time.Hour)
	if !r.ListedAt(Scanner, netip.MustParseAddr("45.1.1.1"), t0.Add(23*time.Hour)) {
		t.Fatal("must still be listed inside ttl")
	}
	if r.ListedAt(Scanner, netip.MustParseAddr("45.1.1.1"), t0.Add(24*time.Hour)) {
		t.Fatal("must expire after ttl")
	}
}

func TestReAddKeepsEarliestListingExtendsExpiry(t *testing.T) {
	r := NewRegistry()
	addr := netip.MustParseAddr("45.2.2.2")
	r.Add(Bot, addr, t0, 10*time.Hour)
	r.Add(Bot, addr, t0.Add(5*time.Hour), 10*time.Hour) // extends to t0+15h
	if !r.ListedAt(Bot, addr, t0.Add(time.Hour)) {
		t.Fatal("earliest listing time must be preserved")
	}
	if !r.ListedAt(Bot, addr, t0.Add(14*time.Hour)) {
		t.Fatal("expiry must be extended by re-add")
	}
	if r.ListedAt(Bot, addr, t0.Add(16*time.Hour)) {
		t.Fatal("must expire after extended ttl")
	}
}

func TestReAddPermanentWins(t *testing.T) {
	r := NewRegistry()
	addr := netip.MustParseAddr("45.3.3.3")
	r.Add(Bot, addr, t0, time.Hour)
	r.Add(Bot, addr, t0.Add(30*time.Minute), 0) // permanent
	if !r.ListedAt(Bot, addr, t0.Add(1000*time.Hour)) {
		t.Fatal("permanent re-add must remove expiry")
	}
}

func TestAnyListedAtAndCategories(t *testing.T) {
	r := NewRegistry()
	addr := netip.MustParseAddr("66.1.2.3")
	r.Add(Bot, addr, t0, 0)
	r.Add(Reflector, addr, t0, 0)
	if !r.AnyListedAt(addr, t0) {
		t.Fatal("AnyListedAt must see the entry")
	}
	cats := r.Categories(addr, t0)
	if len(cats) != 2 || cats[0] != Bot || cats[1] != Reflector {
		t.Fatalf("Categories = %v", cats)
	}
	if r.AnyListedAt(netip.MustParseAddr("67.1.2.3"), t0) {
		t.Fatal("unlisted address must not match")
	}
}

func TestInvalidCategoryIgnored(t *testing.T) {
	r := NewRegistry()
	r.Add(Category(-1), netip.MustParseAddr("1.1.1.1"), t0, 0)
	r.Add(NumCategories, netip.MustParseAddr("1.1.1.1"), t0, 0)
	if r.ListedAt(Category(-1), netip.MustParseAddr("1.1.1.1"), t0) {
		t.Fatal("invalid category must never match")
	}
	for _, n := range r.Size() {
		if n != 0 {
			t.Fatal("invalid adds must not be stored")
		}
	}
}

func TestCategoryString(t *testing.T) {
	if DDoSSource.String() != "ddos-source" || Bot.String() != "bot" {
		t.Fatal("category slugs wrong")
	}
	if Category(99).String() != "unknown" {
		t.Fatal("out-of-range must be unknown")
	}
	if int(NumCategories) != 11 {
		t.Fatalf("paper specifies 11 categories, have %d", NumCategories)
	}
	if len(categoryNames) != int(NumCategories) {
		t.Fatal("every category needs a name")
	}
}

func TestConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				addr := netip.AddrFrom4([4]byte{11, byte(g), byte(i), 1})
				r.Add(Category(i%int(NumCategories)), addr, t0, 0)
				r.AnyListedAt(addr, t0)
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range r.Size() {
		total += n
	}
	if total == 0 {
		t.Fatal("concurrent adds lost")
	}
}

// BenchmarkMarkListed is one flood step's A1 test at narrow_flood's
// shape: 2 000 distinct sources, a fifth of them listed, against a
// registry of 12 000 /24s over the 11 categories.
func BenchmarkMarkListed(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	r := NewRegistry()
	srcs := make([]uint32, 2000)
	for i := 0; i < 60000; i++ {
		w := uint32(11+rng.Intn(200))<<24 | uint32(rng.Intn(1<<16))<<8 | 1
		if rng.Intn(5) == 0 {
			r.Add(Category(rng.Intn(int(NumCategories))), netip.AddrFrom4([4]byte{byte(w >> 24), byte(w >> 16), byte(w >> 8), 1}), t0, 0)
		}
		if i%30 == 0 {
			srcs[i/30] = w
		}
	}
	marks := make([]uint8, len(srcs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.MarkListed(marks, 1, srcs, t0, nil)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(srcs)), "ns/source")
}
