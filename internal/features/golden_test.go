package features

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/attackhist"
	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/routing"
	"github.com/xatu-go/xatu/internal/spoof"
)

// The flood fixture: one step of 2000 records towards one customer in
// which every auxiliary lookup hits — blocklisted (live, expired, not yet
// listed), previous-attacker (before and after the step), bogon, unrouted
// and clean sources, drawn with repetition from a pool of sources; every TCP
// flag combination; popular and unpopular ports; named and unnamed
// countries. With the golden digest's 320-source pool one source lands in
// several groups and in many records; the flood benchmark's 60 000 make
// nearly every record a new source, as a flood does.
var (
	floodCustomer = netip.MustParseAddr("23.1.1.1")
	floodQuiet    = netip.MustParseAddr("23.1.1.9") // no attack history at all
)

func floodGeo(a netip.Addr) string {
	b := a.Unmap().As4()
	if k := int(b[0]) + int(b[1]); k%13 < len(PopularCountries) {
		return PopularCountries[k%13]
	}
	return "ZZ"
}

func floodFixture(tb testing.TB, sources int) (*Extractor, []netflow.Record) {
	tb.Helper()
	rng := rand.New(rand.NewSource(20))
	var tbl routing.Table
	for _, p := range []string{"11.0.0.0/8", "45.0.0.0/14", "66.128.0.0/9", "10.0.0.0/8"} {
		if err := tbl.Insert(netip.MustParsePrefix(p), 64500); err != nil {
			tb.Fatal(err)
		}
	}
	firsts := []byte{11, 11, 11, 45, 66, 66, 12, 200, 10, 192, 100, 172, 224, 198}
	pool := make([]netip.Addr, sources)
	for i := range pool {
		f := firsts[rng.Intn(len(firsts))]
		second := byte(rng.Intn(256))
		switch f {
		case 192:
			second = 168
		case 100:
			second = 64 + byte(rng.Intn(64))
		case 172:
			second = 16 + byte(rng.Intn(16))
		case 198:
			second = 18 + byte(rng.Intn(2))
		}
		pool[i] = netip.AddrFrom4([4]byte{f, second, byte(rng.Intn(sources / 80)), byte(rng.Intn(256))})
	}
	bl := blocklist.NewRegistry()
	hist := attackhist.NewRegistry()
	others := []netip.Addr{netip.MustParseAddr("23.1.1.2"), netip.MustParseAddr("23.1.1.3")}
	for i, a := range pool {
		switch i % 8 {
		case 0: // listed long ago, forever
			bl.Add(blocklist.Category(i%int(blocklist.NumCategories)), a, t0.Add(-30*24*time.Hour), 0)
		case 1: // listed, expires between the two extraction instants
			bl.Add(blocklist.Bot, a, t0.Add(-24*time.Hour), 48*time.Hour)
			bl.Add(blocklist.Scanner, a, t0.Add(-12*time.Hour), 0)
		case 2: // not yet listed at t0
			bl.Add(blocklist.Reflector, a, t0.Add(24*time.Hour), 0)
		}
		if i >= 320 {
			continue // attack history is a few hundred sources however wide the flood
		}
		switch i % 5 {
		case 0:
			hist.RecordAttacker(floodCustomer, a, t0.Add(-time.Duration(1+i)*time.Hour))
		case 1: // becomes a previous attacker only at the later instant
			hist.RecordAttacker(floodCustomer, a, t0.Add(6*time.Hour))
		}
		// Exactly two other customers share attackers with floodCustomer
		// inside the A5 window, so the parent's map-ordered sum of two
		// coefficients is commutative and the digest below is well defined.
		if i%10 == 0 {
			hist.RecordAttacker(others[i/10%2], a, t0.Add(-2*time.Hour))
		}
	}
	hist.RecordAttacker(others[0], netip.MustParseAddr("11.250.0.1"), t0.Add(-3*time.Hour))
	// Shares nothing; and shares one attacker, but long before the window.
	hist.RecordAttacker(netip.MustParseAddr("23.1.1.4"), netip.MustParseAddr("11.250.0.2"), t0.Add(-time.Hour))
	hist.RecordAttacker(netip.MustParseAddr("23.1.1.5"), pool[0], t0.Add(-400*24*time.Hour))
	for k := 0; k < 7; k++ {
		hist.RecordAlert(ddos.Alert{
			Sig:        ddos.SignatureFor(ddos.AttackType(k%int(ddos.NumAttackTypes)), floodCustomer),
			DetectedAt: t0.Add(-time.Duration(3+20*k) * time.Hour),
			Severity:   ddos.Severity(k % int(ddos.NumSeverities)),
			Source:     "fixture",
		})
	}
	protos := []netflow.Proto{netflow.ProtoTCP, netflow.ProtoTCP, netflow.ProtoUDP, netflow.ProtoICMP, 47}
	recs := make([]netflow.Record, 2000)
	for i := range recs {
		r := &recs[i]
		r.Src, r.Dst = pool[rng.Intn(len(pool))], floodCustomer
		r.Proto = protos[rng.Intn(len(protos))]
		r.TCPFlags = uint8(i % 64)
		r.SrcPort, r.DstPort = uint16(1024+rng.Intn(60000)), uint16(rng.Intn(65536))
		if rng.Intn(3) == 0 {
			r.SrcPort = PopularPorts[rng.Intn(len(PopularPorts))]
		}
		if rng.Intn(2) == 0 {
			r.DstPort = PopularPorts[rng.Intn(len(PopularPorts))]
		}
		r.Packets = uint32(1 + rng.Intn(5000))
		r.Bytes = r.Packets * uint32(40+rng.Intn(1460))
		r.Start = t0.Add(time.Duration(rng.Intn(60000)) * time.Millisecond)
		r.End = r.Start.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
	}
	return &Extractor{
		Blocklists: bl,
		History:    hist,
		Spoof:      spoof.NewChecker(&tbl),
		Geo:        floodGeo,
		A4Window:   10 * 24 * time.Hour,
		A5Window:   7 * 24 * time.Hour,
	}, recs
}

// floodCases are the extractions the golden digest covers: both customers,
// two instants (blocklist expiry and later-recorded attackers flip between
// them), the category filter, disabled groups, no Geo, and an empty step.
func floodCases(e *Extractor) []struct {
	ex       Extractor
	customer netip.Addr
	at       time.Time
	empty    bool
} {
	filtered, masked, noGeo := *e, *e, *e
	filtered.BlocklistCategories = []blocklist.Category{blocklist.Bot, blocklist.Reflector}
	masked.Disable = map[string]bool{"A2": true, "A5": true}
	noGeo.Geo = nil
	later := t0.Add(72 * time.Hour)
	return []struct {
		ex       Extractor
		customer netip.Addr
		at       time.Time
		empty    bool
	}{
		{*e, floodCustomer, t0, false},
		{*e, floodCustomer, later, false},
		{*e, floodQuiet, t0, false},
		{filtered, floodCustomer, t0, false},
		{filtered, floodCustomer, later, false},
		{masked, floodCustomer, t0, false},
		{noGeo, floodCustomer, t0, false},
		{*e, floodCustomer, t0, true},
	}
}

func floodDigest(e *Extractor, recs []netflow.Record) string {
	h := sha256.New()
	var (
		dst []float64
		s   Scratch
		buf [8]byte
	)
	for _, c := range floodCases(e) {
		flows := recs
		if c.empty {
			flows = nil
		}
		dst = c.ex.ExtractInto(dst, &s, c.customer, c.at, flows)
		for _, v := range dst {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// floodGolden is floodDigest as computed by the four-map, lookup-per-record
// extractor this one replaced (commit 32a1aac). It is never regenerated: a
// change that moves it has changed a feature value.
const floodGolden = "e4406c6c447dc6888a9f1c29f0f82472671f487a80b260f9c359849857df179d"

func TestFloodGoldenDigest(t *testing.T) {
	e, recs := floodFixture(t, 320)
	if got := floodDigest(e, recs); got != floodGolden {
		t.Fatalf("flood fixture digest = %s, want %s", got, floodGolden)
	}
}

func bitEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestExtractOrderIndependent is the exactness argument as a property: any
// order of a step's records gives the same vector, bit for bit. The second
// bucket carries math.MaxUint32 bytes and packets in every record — 2000 of
// them sum to < 2^43, and the bound is 2^53: over two million such records
// in one step.
func TestExtractOrderIndependent(t *testing.T) {
	e, recs := floodFixture(t, 320)
	heavy := slices.Clone(recs)
	for i := range heavy {
		heavy[i].Bytes, heavy[i].Packets = math.MaxUint32, math.MaxUint32
	}
	rng := rand.New(rand.NewSource(21))
	var s Scratch
	for name, bucket := range map[string][]netflow.Record{"fixture": recs, "max-uint32": heavy} {
		want := e.Extract(floodCustomer, t0, bucket)
		if want[OffV+slotMeanBytes] == 0 || want[OffA3+slotMaxPkts] == 0 {
			t.Fatalf("%s: fixture extracted nothing", name)
		}
		shuffled := slices.Clone(bucket)
		var got []float64
		for round := 0; round < 100; round++ {
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got = e.ExtractInto(got, &s, floodCustomer, t0, shuffled); !bitEqual(got, want) {
				t.Fatalf("%s: shuffle %d changed the vector", name, round)
			}
		}
		netflow.SortRecordsCanonical(shuffled)
		if got = e.ExtractInto(got, &s, floodCustomer, t0, shuffled); !bitEqual(got, want) {
			t.Fatalf("%s: canonical order changed the vector", name)
		}
	}
}

// TestNonIPv4Sources: ObserveStep is public and takes caller-built records,
// and a plain IPv6 source used to panic the extractor inside the blocklist
// lookup. Such a source is never listed, never a previous attacker, spoofed
// as any source no prefix covers, and still counted in V; a 4-in-6 source
// is its IPv4 form, in the lookups and in the unique-source count.
func TestNonIPv4Sources(t *testing.T) {
	e := testExtractor(t)
	v6 := netip.MustParseAddr("2001:db8::1")
	// Were IPv6 sources truncated to a word, these would be found.
	e.Blocklists.Add(blocklist.Bot, v6, t0.Add(-time.Hour), 0)
	e.History.RecordAttacker(customer, v6, t0.Add(-time.Hour))
	odd := []netflow.Record{
		rec(v6, netflow.ProtoUDP, 53, 2, 0, 100, 1),
		rec(v6, netflow.ProtoUDP, 53, 2, 0, 100, 1),
		rec(netip.Addr{}, netflow.ProtoUDP, 53, 2, 0, 50, 1),
	}
	v := e.Extract(customer, t0, odd)
	udpBytes := slotProto
	if v[OffV+slotUnique] != 2 || v[OffV+udpBytes] != 250 {
		t.Fatalf("V: unique %v udp bytes %v, want 2 and 250", v[OffV+slotUnique], v[OffV+udpBytes])
	}
	if v[OffA1+slotUnique] != 0 || v[OffA2+slotUnique] != 0 {
		t.Fatalf("non-IPv4 sources in A1 (%v) or A2 (%v)", v[OffA1+slotUnique], v[OffA2+slotUnique])
	}
	if v[OffA3+slotUnique] != 2 || v[OffA3+udpBytes] != 250 {
		t.Fatalf("A3: unique %v udp bytes %v, want 2 and 250 (unrouted)", v[OffA3+slotUnique], v[OffA3+udpBytes])
	}

	mixed := []netflow.Record{
		rec(srcBad, netflow.ProtoTCP, 80, 443, netflow.FlagSYN, 400, 4),
		rec(srcPrev, netflow.ProtoUDP, 1, 2, 0, 300, 3),
		rec(srcSpoof, netflow.ProtoICMP, 0, 0, 0, 200, 2),
		rec(srcGood, netflow.ProtoUDP, 1, 2, 0, 100, 1),
	}
	mapped := slices.Clone(mixed)
	for i := range mapped {
		mapped[i].Src = netip.AddrFrom16(mapped[i].Src.As16())
	}
	want := e.Extract(customer, t0, mixed)
	if got := e.Extract(customer, t0, mapped); !bitEqual(got, want) {
		t.Fatal("4-in-6 sources must extract as their IPv4 form")
	}
	if got := e.Extract(customer, t0, append(mapped, mixed...)); got[OffV+slotUnique] != 4 || got[OffA1+slotUnique] != 1 {
		t.Fatalf("a host seen in both forms is one source: V %v A1 %v", got[OffV+slotUnique], got[OffA1+slotUnique])
	}
}

// TestExtractWhileRegistriesChange runs ExtractInto on two goroutines while
// a third records attackers, alerts and blocklist entries that do not touch
// the extracted customer or its sources: the vectors stay bit-equal, and
// under -race the bulk lookups are shown to be ordered against the writers.
func TestExtractWhileRegistriesChange(t *testing.T) {
	e, recs := floodFixture(t, 320)
	want := e.Extract(floodQuiet, t0, recs)
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		victim := netip.MustParseAddr("23.9.9.9")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			src := netip.AddrFrom4([4]byte{150, byte(i >> 8), byte(i), 1})
			e.History.RecordAttacker(victim, src, t0.Add(-time.Hour))
			e.History.RecordAlert(ddos.Alert{Sig: ddos.SignatureFor(ddos.UDPFlood, victim), DetectedAt: t0.Add(-time.Hour)})
			e.Blocklists.Add(blocklist.Bot, src, t0.Add(-time.Hour), 0)
		}
	}()
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var (
				s   Scratch
				got []float64
			)
			for i := 0; i < 50; i++ {
				if got = e.ExtractInto(got, &s, floodQuiet, t0, recs); !bitEqual(got, want) {
					t.Errorf("extraction %d changed under concurrent registry writes", i)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

func benchExtract(b *testing.B, n int) {
	e, flows := floodFixture(b, 60000)
	flows = flows[:n]
	var (
		s   Scratch
		dst []float64
	)
	dst = e.ExtractInto(dst, &s, floodCustomer, t0, flows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = e.ExtractInto(dst, &s, floodCustomer, t0, flows)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(flows)), "ns/record")
}

// BenchmarkExtractFlood is one flood step: 2000 records, every lookup
// hitting, A4 and A5 included.
func BenchmarkExtractFlood(b *testing.B) { benchExtract(b, 2000) }

// BenchmarkExtractQuiet is one quiet step of 4 records: the per-call cost
// (clearing, A4, A5) rather than the per-record one.
func BenchmarkExtractQuiet(b *testing.B) { benchExtract(b, 4) }
