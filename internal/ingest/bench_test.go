package ingest

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/netflow"
)

// benchStream pre-encodes one pass of traffic plus the patch metadata the
// feeding loop needs to replay it indefinitely: each replayed pass bumps
// every packet's header clock by the pass's time span and its flow
// sequence by the source's per-pass record count, so time stays monotone
// and sequence accounting stays clean across passes.
type benchStream struct {
	packets  []srcPacket
	baseSecs []uint32 // header unix_secs as encoded
	baseSeq  []uint32 // header flow_sequence as encoded
	srcIdx   []int
	perPass  []uint32 // records per source per pass
	spanSecs uint32
	records  int // records per pass
}

func buildBenchStream(b *testing.B, nSources, nCustomers, steps int) *benchStream {
	b.Helper()
	packets, _ := buildStream(b, nSources, nCustomers, steps)
	s := &benchStream{packets: packets, spanSecs: uint32(steps * 60)}
	s.perPass = make([]uint32, nSources)
	for _, sp := range packets {
		s.baseSecs = append(s.baseSecs, binary.BigEndian.Uint32(sp.pkt[8:12]))
		s.baseSeq = append(s.baseSeq, binary.BigEndian.Uint32(sp.pkt[16:20]))
		var idx int
		fmt.Sscanf(sp.src, "192.0.2.%d:2055", &idx)
		idx--
		s.srcIdx = append(s.srcIdx, idx)
		n := int(binary.BigEndian.Uint16(sp.pkt[2:4]))
		s.perPass[idx] += uint32(n)
		s.records += n
	}
	return s
}

// feed replays n packets through sink, patching clocks and sequences per
// pass. Patching mutates the shared templates, which is safe because every
// sink copies the packet synchronously.
func (s *benchStream) feed(n int, sink func(src string, pkt []byte)) {
	var epoch, pass uint32
	for i := 0; i < n; i++ {
		j := i % len(s.packets)
		if j == 0 && i > 0 {
			epoch += s.spanSecs
			pass++
		}
		sp := s.packets[j]
		src := s.srcIdx[j]
		binary.BigEndian.PutUint32(sp.pkt[8:12], s.baseSecs[j]+epoch)
		binary.BigEndian.PutUint32(sp.pkt[16:20], s.baseSeq[j]+pass*s.perPass[src])
		sink(sp.src, sp.pkt)
	}
}

// BenchmarkIngestE2E measures end-to-end ingest throughput — raw NetFlow
// v5 packets in, per-(customer, step) feature vectors out — through the
// pipeline with K decode and K aggregation workers. The records/s metric
// is the comparable throughput number.
func BenchmarkIngestE2E(b *testing.B) {
	const (
		nSources   = 4
		nCustomers = 32
		steps      = 30
	)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := buildBenchStream(b, nSources, nCustomers, steps)
			var steps64 atomic.Uint64
			p, err := New(Config{
				DecodeWorkers: workers,
				AggWorkers:    workers,
				Step:          time.Minute,
				Lateness:      2 * time.Minute,
				Extractor:     testExtractor(),
				OnStep: func(netip.Addr, time.Time, []float64, []netflow.Record) {
					steps64.Add(1)
				},
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			s.feed(b.N, p.HandlePacket)
			if err := p.Close(); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			st := p.Stats()
			b.ReportMetric(float64(st.Records)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(steps64.Load())/b.Elapsed().Seconds(), "steps/s")
		})
	}
}

// BenchmarkDecodeV5Into pins the allocation-free decode contract where the
// ISSUE's acceptance measures it: steady-state decode into reused storage.
func BenchmarkDecodeV5Into(b *testing.B) {
	s := buildBenchStream(b, 1, 8, 2)
	pkt := s.packets[0].pkt
	recs := make([]netflow.Record, 0, netflow.MaxRecordsPerPacket)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, recs, err = netflow.DecodeV5Into(pkt, recs)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAggregatorAdd pins the allocation-free aggregator hot path:
// warmed free-lists, records added and sealed batches recycled.
func BenchmarkAggregatorAdd(b *testing.B) {
	agg := netflow.NewAggregator(time.Minute, 0)
	dsts := make([]netip.Addr, 16)
	for i := range dsts {
		dsts[i] = netip.AddrFrom4([4]byte{203, 0, 113, byte(i + 1)})
	}
	base := time.Date(2019, 7, 3, 12, 0, 0, 0, time.UTC)
	rec := netflow.Record{
		Src: netip.AddrFrom4([4]byte{11, 1, 1, 1}), Proto: netflow.ProtoUDP,
		Packets: 10, Bytes: 640,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := base.Add(time.Duration(i/len(dsts)) * 5 * time.Second)
		rec.Dst = dsts[i%len(dsts)]
		rec.Start = at
		rec.End = at.Add(time.Second)
		for _, sealed := range agg.Add(rec) {
			agg.Recycle(sealed)
		}
	}
}

// BenchmarkExtractInto pins the allocation-free extraction hot path with a
// warmed destination buffer and scratch.
func BenchmarkExtractInto(b *testing.B) {
	ext := testExtractor()
	ext.Disable = map[string]bool{"A5": true} // registry graph work allocates; see features tests
	customer := netip.AddrFrom4([4]byte{203, 0, 113, 1})
	flows := make([]netflow.Record, 0, 32)
	for j := 0; j < 32; j++ {
		flows = append(flows, netflow.Record{
			Src: netip.AddrFrom4([4]byte{11, 1, 1, byte(j + 1)}), Dst: customer,
			Proto: netflow.ProtoUDP, SrcPort: uint16(1024 + j), DstPort: 80,
			Packets: 10, Bytes: 6000, Start: t0, End: t0.Add(30 * time.Second),
		})
	}
	var dst []float64
	var scratch features.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ext.ExtractInto(dst, &scratch, customer, t0, flows)
	}
}
