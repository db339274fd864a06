package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"time"

	"github.com/xatu-go/xatu/internal/attackhist"
	"github.com/xatu-go/xatu/internal/blocklist"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/routing"
	"github.com/xatu-go/xatu/internal/simnet"
	"github.com/xatu-go/xatu/internal/spoof"
	"github.com/xatu-go/xatu/internal/trace"
)

// Closed-loop input generation. One pass of traffic is encoded once into
// NetFlow v5 datagrams; replaying pass p bumps every datagram's header
// clock by p pass-lengths and its flow sequence by p times the exporter's
// per-pass record count (the scheme of internal/ingest/bench_test.go), so
// event time stays monotone, sequence accounting stays clean, and the
// generator goroutine costs a header patch per datagram — the system under
// test, not the generator, is the bottleneck.

const (
	stepDur    = time.Minute
	numSources = 4 // exporters the datagrams are spread over
	// warmupTicks are replayed untimed before every measurement (past
	// PoolLong=60) and counted into setup_s; the smoke pass warms less.
	warmupTicks      = 64
	smokeWarmupTicks = 16
	// sampleRate is the 1-in-N customer sample whose detector state is
	// checked against the serial reference (the repo's own stable trace
	// sampler decides membership).
	sampleRate = 16
)

// sampler is the 1-in-sampleRate customer sample of the state check.
func sampler() *trace.Sampler { return trace.NewSampler(sampleRate) }

var streamBase = time.Date(2022, 12, 6, 0, 0, 0, 0, time.UTC)

// closedSpec sizes one closed-loop workload.
type closedSpec struct {
	name        string
	customers   int
	recsPerStep int     // mean records per customer-step
	srcPool     int     // distinct source addresses
	passTicks   int     // ticks encoded per pass
	histEvery   int     // every Nth customer carries attack history
	attackers   int     // recorded attackers per such customer
	attackShare float64 // share of such a customer's records its attackers send
	blockShare  float64 // share of the source pool on a blocklist
	hidden      int
	warmup      int // untimed warm-up ticks
}

// specs are the two closed-loop workloads, at the issue's sizes.
var specs = map[string]closedSpec{
	"wide_quiet": {
		name: "wide_quiet", customers: 4096, recsPerStep: 4, srcPool: 4096, passTicks: 4,
		histEvery: 64, attackers: 8, attackShare: 0.1, blockShare: 0.05, hidden: 64, warmup: warmupTicks,
	},
	"narrow_flood": {
		name: "narrow_flood", customers: 32, recsPerStep: 2000, srcPool: 60000, passTicks: 2,
		histEvery: 1, attackers: 48, attackShare: 0.1, blockShare: 0.2, hidden: 64, warmup: warmupTicks,
	},
}

// smokeSpec shrinks a spec for the -smoke pass and the tests.
func smokeSpec(s closedSpec) closedSpec {
	s.customers = min(s.customers, 16)
	s.recsPerStep = min(s.recsPerStep, 60)
	s.srcPool = min(s.srcPool, 2000)
	s.hidden = 8
	s.warmup = smokeWarmupTicks
	return s
}

type pktRef struct {
	off, n int
	src    int
}

// stream is one encoded pass plus the registries its sources were seeded
// into.
type stream struct {
	spec      closedSpec
	arena     []byte
	pkts      []pktRef
	tickOff   []int    // pkts[tickOff[t]:tickOff[t+1]] belong to pass tick t
	tickRecs  []int    // records in pass tick t
	baseSecs  []uint32 // header unix_secs as encoded
	baseSeq   []uint32 // header flow_sequence as encoded
	perPass   [numSources]uint32
	srcNames  [numSources]string
	customers []netip.Addr
	extractor *features.Extractor
	hash      uint64 // of the encoded pass, before any patching
}

var routableBlocks = []byte{11, 45, 66, 101, 133, 155, 181, 200}

// buildStream deterministically generates a workload's inputs from seed.
func buildStream(spec closedSpec, seed int64) (*stream, error) {
	rng := rand.New(rand.NewSource(seed))
	s := &stream{spec: spec}
	for i := range s.srcNames {
		s.srcNames[i] = fmt.Sprintf("192.0.2.%d:2055", i+1)
	}
	routes := routing.SyntheticTable(64, rng)
	lists := blocklist.NewRegistry()
	hist := attackhist.NewRegistry()
	s.extractor = &features.Extractor{
		Blocklists: lists,
		History:    hist,
		Spoof:      spoof.NewChecker(routes),
		Geo:        simnet.GeoOf,
		A4Window:   10 * 24 * time.Hour,
		A5Window:   7 * 24 * time.Hour,
	}

	s.customers = make([]netip.Addr, spec.customers)
	for i := range s.customers {
		s.customers[i] = netip.AddrFrom4([4]byte{23, byte(1 + i>>16), byte(i >> 8), byte(i)})
	}
	// Sources: mostly addresses in routable blocks — the synthetic table
	// leaves ~30 % of them unrouted, which the spoof check (A3) flags —
	// plus a few RFC 1918 bogons; a share of them is blocklisted (A1).
	pool := make([]netip.Addr, spec.srcPool)
	for i := range pool {
		first := routableBlocks[rng.Intn(len(routableBlocks))]
		if rng.Float64() < 0.05 {
			first = 10
		}
		pool[i] = netip.AddrFrom4([4]byte{first, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))})
		if rng.Float64() < spec.blockShare {
			cat := blocklist.Category(rng.Intn(int(blocklist.NumCategories)))
			lists.Add(cat, pool[i], streamBase.Add(-30*24*time.Hour), 0)
		}
	}
	// Attack history (A2, A4, A5): recorded attackers are drawn from one
	// shared slice of the pool, so customers share attackers and the
	// clustering coefficients are non-zero.
	attackersOf := make([][]netip.Addr, spec.customers)
	shared := pool[:min(len(pool), 4*spec.attackers)]
	for i, c := range s.customers {
		if spec.histEvery == 0 || i%spec.histEvery != 0 {
			continue
		}
		for k := 0; k < spec.attackers; k++ {
			a := shared[rng.Intn(len(shared))]
			attackersOf[i] = append(attackersOf[i], a)
			hist.RecordAttacker(c, a, streamBase.Add(-time.Duration(1+rng.Intn(48))*time.Hour))
		}
		for k := 0; k < 3; k++ {
			at := ddos.AttackType(rng.Intn(int(ddos.NumAttackTypes)))
			hist.RecordAlert(ddos.Alert{
				Sig:        ddos.SignatureFor(at, c),
				DetectedAt: streamBase.Add(-time.Duration(2+rng.Intn(96)) * time.Hour),
				Source:     "bench",
				Severity:   ddos.Severity(rng.Intn(int(ddos.NumSeverities))),
			})
		}
	}

	popular := features.PopularPorts
	boot := streamBase.Add(-time.Minute)
	var seq [numSources]uint32
	var recs []netflow.Record
	s.tickOff = []int{0}
	for t := 0; t < spec.passTicks; t++ {
		start := streamBase.Add(time.Duration(t) * stepDur)
		recs = recs[:0]
		for i, c := range s.customers {
			n := spec.recsPerStep/2 + rng.Intn(spec.recsPerStep+1)
			if spec.recsPerStep >= 100 {
				n = spec.recsPerStep*9/10 + rng.Intn(spec.recsPerStep/5+1)
			}
			for k := 0; k < max(n, 1); k++ {
				r := netflow.Record{Dst: c, Src: pool[rng.Intn(len(pool))]}
				if atk := attackersOf[i]; len(atk) > 0 && rng.Float64() < spec.attackShare {
					r.Src = atk[rng.Intn(len(atk))]
				}
				switch p := rng.Float64(); {
				case p < 0.60:
					r.Proto = netflow.ProtoTCP
					r.TCPFlags = uint8(rng.Intn(64))
				case p < 0.95:
					r.Proto = netflow.ProtoUDP
				default:
					r.Proto = netflow.ProtoICMP
				}
				r.SrcPort = uint16(1024 + rng.Intn(60000))
				if rng.Float64() < 0.3 {
					r.SrcPort = popular[rng.Intn(len(popular))]
				}
				r.DstPort = popular[rng.Intn(len(popular))]
				r.Packets = uint32(1 + rng.Intn(50))
				r.Bytes = r.Packets * uint32(64+rng.Intn(1337))
				r.Start = start.Add(time.Duration(1+rng.Intn(58000)) * time.Millisecond)
				r.End = r.Start.Add(time.Duration(rng.Intn(1000)) * time.Millisecond)
				recs = append(recs, r)
			}
		}
		// Routers export flows as they expire, not customer by customer.
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		s.tickRecs = append(s.tickRecs, len(recs))
		for off, k := 0, 0; off < len(recs); off, k = off+netflow.MaxRecordsPerPacket, k+1 {
			batch := recs[off:min(off+netflow.MaxRecordsPerPacket, len(recs))]
			src := k % numSources
			pkt, err := netflow.EncodeV5(batch, boot, start.Add(stepDur), seq[src], 0)
			if err != nil {
				return nil, fmt.Errorf("encoding %s tick %d: %w", spec.name, t, err)
			}
			s.pkts = append(s.pkts, pktRef{off: len(s.arena), n: len(pkt), src: src})
			s.baseSecs = append(s.baseSecs, binary.BigEndian.Uint32(pkt[8:12]))
			s.baseSeq = append(s.baseSeq, seq[src])
			s.arena = append(s.arena, pkt...)
			seq[src] += uint32(len(batch))
		}
		s.tickOff = append(s.tickOff, len(s.pkts))
	}
	s.perPass = seq
	h := fnv.New64a()
	h.Write(s.arena)
	for _, p := range s.pkts {
		h.Write([]byte{byte(p.src)})
	}
	s.hash = h.Sum64()
	// The templates live in one bench-owned arena, kept out of heap_mb.
	owned := ownedBytes(len(s.arena))
	copy(owned, s.arena)
	s.arena = owned
	return s, nil
}

// release returns the stream's arena to the heap accounting.
func (s *stream) release() { benchOwned -= int64(len(s.arena)) }

// feedTick hands global tick g's datagrams to sink, patched for its pass,
// and returns the records they carry. Patching mutates the shared
// templates, which is safe because every sink copies synchronously.
func (s *stream) feedTick(g int, sink func(src string, pkt []byte)) int {
	pass, t := uint32(g/s.spec.passTicks), g%s.spec.passTicks
	epoch := pass * uint32(s.spec.passTicks) * uint32(stepDur/time.Second)
	for j := s.tickOff[t]; j < s.tickOff[t+1]; j++ {
		p := s.pkts[j]
		pkt := s.arena[p.off : p.off+p.n]
		binary.BigEndian.PutUint32(pkt[8:12], s.baseSecs[j]+epoch)
		binary.BigEndian.PutUint32(pkt[16:20], s.baseSeq[j]+pass*s.perPass[p.src])
		sink(s.srcNames[p.src], pkt)
	}
	return s.tickRecs[t]
}

// stepIndex maps a sealed step's start time back to its global tick.
func stepIndex(at time.Time) int { return int(at.Sub(streamBase) / stepDur) }
