package netflow

import (
	"net/netip"
	"testing"
	"time"
)

// mkTestPacket encodes nrecs records destined to distinct customers into
// one v5 datagram with the given flow sequence.
func mkTestPacket(t testing.TB, nrecs int, seq uint32) []byte {
	t.Helper()
	boot := time.Date(2019, 4, 24, 0, 0, 0, 0, time.UTC)
	now := boot.Add(time.Hour)
	recs := make([]Record, nrecs)
	for i := range recs {
		recs[i] = Record{
			Src:     netip.AddrFrom4([4]byte{11, 0, byte(i >> 8), byte(i)}),
			Dst:     netip.AddrFrom4([4]byte{23, 0, 0, byte(i%8 + 1)}),
			SrcPort: 53, DstPort: 4444, Proto: ProtoUDP,
			Packets: 10, Bytes: 640,
			Start: boot.Add(30 * time.Minute), End: boot.Add(31 * time.Minute),
		}
	}
	pkt, err := EncodeV5(recs, boot, now, seq, 100)
	if err != nil {
		t.Fatal(err)
	}
	return pkt
}

// TestHandlePacketAllocFree is the regression pin for the per-datagram
// source-key and decode allocations: after warm-up, the work an ingest
// decode worker does per datagram — DecodeV5Into a reused chunk, then
// SeqTracker.Track — allocates nothing: no fmt.Sprintf key, no fresh record
// slice.
func TestHandlePacketAllocFree(t *testing.T) {
	tr := NewSeqTracker()
	pkt := mkTestPacket(t, 10, 0)
	chunk := make([]Record, 0, MaxRecordsPerPacket)
	seq := uint32(0)
	feed := func() {
		// Rewrite the flow sequence in place so tracking stays in order.
		pkt[16], pkt[17], pkt[18], pkt[19] = byte(seq>>24), byte(seq>>16), byte(seq>>8), byte(seq)
		h, recs, err := DecodeV5Into(pkt, chunk)
		if err != nil {
			t.Fatal(err)
		}
		if tr.Track("198.51.100.9:2055", h, len(recs)) {
			t.Fatal("in-order datagram dropped as a duplicate")
		}
		chunk = recs[:0]
		seq += 10
	}
	for i := 0; i < 8; i++ {
		feed()
	}
	if allocs := testing.AllocsPerRun(100, feed); allocs != 0 {
		t.Fatalf("decode + Track allocs/op = %v, want 0", allocs)
	}
	if dup, reo, lost := tr.Counters(); dup != 0 || reo != 0 || lost != 0 || tr.Exporters() != 1 {
		t.Fatalf("in-order stream: dup=%d reordered=%d lost=%d exporters=%d", dup, reo, lost, tr.Exporters())
	}
}

// TestSeqTrackerAccounting walks one exporter stream through each case of
// the sequence accounting: a gap charges loss, the late datagram refunds
// it as a reorder, a replay of a recently seen sequence is a duplicate, and
// a second engine on the same source is a separate stream.
func TestSeqTrackerAccounting(t *testing.T) {
	tr := NewSeqTracker()
	h := func(seq uint32) Header { return Header{FlowSequence: seq} }
	steps := []struct {
		seq            uint32
		drop           bool
		dup, reo, lost uint64
	}{
		{0, false, 0, 0, 0},
		{20, false, 0, 0, 10}, // records 10..19 missing so far
		{10, false, 0, 1, 0},  // they arrive late: refund
		{10, true, 1, 1, 0},   // and again: duplicate
		{30, false, 1, 1, 0},
	}
	for i, s := range steps {
		if drop := tr.Track("192.0.2.1:2055", h(s.seq), 10); drop != s.drop {
			t.Fatalf("step %d: drop = %v, want %v", i, drop, s.drop)
		}
		if dup, reo, lost := tr.Counters(); dup != s.dup || reo != s.reo || lost != s.lost {
			t.Fatalf("step %d: dup/reordered/lost = %d/%d/%d, want %d/%d/%d", i, dup, reo, lost, s.dup, s.reo, s.lost)
		}
	}
	tr.Track("192.0.2.1:2055", Header{EngineID: 1, FlowSequence: 500}, 10)
	if tr.Exporters() != 2 {
		t.Fatalf("Exporters = %d, want 2", tr.Exporters())
	}
	if _, _, lost := tr.Counters(); lost != 0 {
		t.Fatalf("a new engine's first datagram charged loss: %d", lost)
	}
}
