package netflow

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net/netip"
	"slices"
	"testing"
	"time"
)

// FuzzDecodeV5 asserts the v5 decoder never panics and that anything it
// accepts re-encodes to an equivalent record set.
func FuzzDecodeV5(f *testing.F) {
	// Seed with a valid packet and some mutations.
	boot := time.Date(2019, 4, 24, 0, 0, 0, 0, time.UTC)
	now := boot.Add(time.Hour)
	rec := Record{
		Src: mustAddr4(11, 1, 2, 3), Dst: mustAddr4(23, 4, 5, 6),
		SrcPort: 53, DstPort: 4444, Proto: ProtoUDP,
		Packets: 10, Bytes: 640,
		Start: boot.Add(30 * time.Minute), End: boot.Add(31 * time.Minute),
	}
	good, err := EncodeV5([]Record{rec}, boot, now, 1, 100)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:10])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 100))

	f.Fuzz(func(t *testing.T, pkt []byte) {
		h, recs, err := DecodeV5(pkt)

		// The Into variant must agree with DecodeV5 bit for bit — same
		// header, same records, same accept/reject decision — whether the
		// caller's slice is nil, generously sized, or too small to hold
		// even one record (forcing append growth). It must never touch the
		// caller's backing array past the capacity it was handed.
		backing := make([]Record, 4, 36)
		sentinel := Record{SrcPort: 0xDEAD, DstPort: 0xBEEF}
		for i := range backing {
			backing[i] = sentinel
		}
		for _, into := range [][]Record{nil, make([]Record, 0, MaxRecordsPerPacket), backing[:0:2]} {
			h2, recs2, err2 := DecodeV5Into(pkt, into)
			if (err == nil) != (err2 == nil) {
				t.Fatalf("DecodeV5 err=%v, DecodeV5Into err=%v", err, err2)
			}
			if err != nil {
				continue
			}
			if h2 != h {
				t.Fatalf("header mismatch: %+v vs %+v", h, h2)
			}
			if len(recs2) != len(recs) {
				t.Fatalf("record count mismatch: %d vs %d", len(recs), len(recs2))
			}
			for i := range recs {
				if recs[i] != recs2[i] {
					t.Fatalf("record %d mismatch:\n  %+v\n  %+v", i, recs[i], recs2[i])
				}
			}
		}
		// Capacity-2 slice: positions 2 and 3 of the original backing array
		// lie beyond the handed-over capacity and must be untouched.
		for i := 2; i < 4; i++ {
			if backing[i] != sentinel {
				t.Fatalf("DecodeV5Into wrote past the provided slice at %d", i)
			}
		}

		if err != nil {
			return
		}
		if int(h.Count) != len(recs) {
			t.Fatalf("header count %d != records %d", h.Count, len(recs))
		}
		for _, r := range recs {
			if err := r.Validate(); err != nil {
				t.Fatalf("decoder accepted invalid record: %v", err)
			}
		}
	})
}

// FuzzParseTrailerV1 probes arbitrary datagrams for an XTR1 trace
// trailer the way ingest does: after DecodeV5Into accepted the packet,
// with its record count. Whatever the bytes, the probe must not panic; a
// trailer it finds must start right past the record region, so cutting
// the packet there decodes to the same header and records; and the
// trailer must re-encode through AppendTrailerV1 to its own bytes (the
// reserved flags byte aside, which the probe ignores and the writer
// zeroes). The probe at the header's raw count must not panic either, on
// packets the decoder refused. The committed corpus
// (testdata/fuzz/FuzzParseTrailerV1) holds a traced datagram, its bare
// twin, a trailer with a bad version, one cut mid-trailer and one behind
// a record count that claims too many records.
func FuzzParseTrailerV1(f *testing.F) {
	f.Fuzz(func(t *testing.T, pkt []byte) {
		if len(pkt) >= 4 {
			ParseTrailerV1(pkt, int(binary.BigEndian.Uint16(pkt[2:])))
		}
		h, recs, err := DecodeV5Into(pkt, nil)
		if err != nil {
			return
		}
		tr, ok := ParseTrailerV1(pkt, len(recs))
		if !ok {
			return
		}
		end := v5HeaderLen + len(recs)*v5RecordLen
		h2, recs2, err := DecodeV5Into(pkt[:end], nil)
		if err != nil || h2 != h || !slices.Equal(recs2, recs) {
			t.Fatalf("the records before the trailer decode differently alone: %v", err)
		}
		got := AppendTrailerV1(append([]byte(nil), pkt[:end]...), int(tr.Rate), tr.T0)
		want := append([]byte(nil), pkt[:end+trailerV1Len]...)
		want[end+5] = 0 // flags: reserved, ignored by the probe
		if !bytes.Equal(got, want) {
			t.Fatalf("trailer re-encodes as %x, want %x", got[end:], want[end:])
		}
		if tr2, ok := ParseTrailerV1(got, len(recs)); !ok || tr2.Rate != tr.Rate || !tr2.T0.Equal(tr.T0) {
			t.Fatalf("re-encoded trailer parses as %+v (%v), want %+v", tr2, ok, tr)
		}
	})
}

// FuzzJournalReader asserts the journal reader never panics on corrupt
// streams and either errors or yields valid records.
func FuzzJournalReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewJournalWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	base := time.Date(2019, 5, 1, 0, 0, 0, 0, time.UTC)
	_ = w.Write(Record{
		Src: mustAddr4(11, 1, 1, 1), Dst: mustAddr4(23, 1, 1, 1),
		Proto: ProtoTCP, TCPFlags: FlagACK, Packets: 5, Bytes: 500,
		Start: base, End: base.Add(time.Minute),
	})
	_ = w.Flush()
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:5])
	f.Add([]byte("XFJ1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		jr, err := NewJournalReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < 1000; i++ {
			r, err := jr.Next()
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				return // truncation/corruption errors are fine
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("reader yielded invalid record: %v", err)
			}
		}
	})
}

// FuzzJournalRoundTrip fuzzes record fields through a write→read cycle:
// whatever the writer accepts must read back identically, and truncating
// the encoded stream mid-record must yield ErrJournalTruncated (never a
// panic, never a bogus record).
func FuzzJournalRoundTrip(f *testing.F) {
	f.Add(uint32(0x0B010101), uint32(0x17010101), uint16(53), uint16(4444),
		uint8(17), uint8(0), uint16(64512), uint32(10), uint32(640), int64(1556064000000), int64(1556064060000))
	f.Add(uint32(0), uint32(0), uint16(0), uint16(0), uint8(0), uint8(0), uint16(0), uint32(0), uint32(0), int64(0), int64(0))
	f.Add(^uint32(0), ^uint32(0), ^uint16(0), ^uint16(0), ^uint8(0), ^uint8(0), ^uint16(0),
		^uint32(0), ^uint32(0), int64(1<<40), int64(1<<41))

	f.Fuzz(func(t *testing.T, src, dst uint32, sport, dport uint16, proto, flags uint8,
		srcAS uint16, packets, bytesN uint32, startMilli, endMilli int64) {
		rec := Record{
			Src:     netip.AddrFrom4([4]byte{byte(src >> 24), byte(src >> 16), byte(src >> 8), byte(src)}),
			Dst:     netip.AddrFrom4([4]byte{byte(dst >> 24), byte(dst >> 16), byte(dst >> 8), byte(dst)}),
			SrcPort: sport, DstPort: dport,
			Proto: Proto(proto), TCPFlags: flags, SrcAS: srcAS,
			Packets: packets, Bytes: bytesN,
			Start: time.UnixMilli(startMilli).UTC(),
			End:   time.UnixMilli(endMilli).UTC(),
		}
		var buf bytes.Buffer
		w, err := NewJournalWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Write(rec); err != nil {
			return // writer rejected an invalid record: fine
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()

		jr, err := NewJournalReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("reader rejected writer output: %v", err)
		}
		got, err := jr.Next()
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if got != rec {
			t.Fatalf("round trip mismatch:\n  wrote %+v\n  read  %+v", rec, got)
		}
		if _, err := jr.Next(); !errors.Is(err, io.EOF) {
			t.Fatalf("expected clean EOF after one record, got %v", err)
		}

		// Any truncation inside the record body must surface as
		// ErrJournalTruncated.
		for _, cut := range []int{1, journalRecordLen / 2, journalRecordLen - 1} {
			trunc := data[:len(data)-cut]
			jr, err := NewJournalReader(bytes.NewReader(trunc))
			if err != nil {
				t.Fatalf("header should survive a body truncation: %v", err)
			}
			if _, err := jr.Next(); !errors.Is(err, ErrJournalTruncated) {
				t.Fatalf("truncated by %d bytes: got %v, want ErrJournalTruncated", cut, err)
			}
		}
	})
}

func mustAddr4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }
