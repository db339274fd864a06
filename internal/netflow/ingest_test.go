package netflow_test

import (
	"context"
	"net"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/ingest"
	"github.com/xatu-go/xatu/internal/netflow"
)

// The exporter's receiving side is the ingest pipeline: these tests run
// the exporter into it, over a real socket (Pipeline.Serve) or the
// in-memory chaos pipe, and read back the records its sealed steps hold.

// recorder is a pipeline's OnStep sink keeping every sealed record.
type recorder struct {
	mu   sync.Mutex
	recs []netflow.Record
}

func (r *recorder) onStep(_ netip.Addr, _ time.Time, _ []float64, flows []netflow.Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recs = append(r.recs, flows...)
}

// newPipeline starts a pipeline sealing one-minute steps into a recorder.
// Records are read once Close has sealed the open steps.
func newPipeline(t *testing.T, lateness time.Duration) (*ingest.Pipeline, *recorder) {
	t.Helper()
	rec := &recorder{}
	pipe, err := ingest.New(ingest.Config{Step: time.Minute, Lateness: lateness, OnStep: rec.onStep})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pipe.Close() })
	return pipe, rec
}

// serveUDP runs the pipeline's read loop on a loopback socket. stop ends
// the loop and closes the pipeline, sealing every open step.
func serveUDP(t *testing.T, pipe *ingest.Pipeline) (addr string, stop func()) {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- pipe.Serve(ctx, pc) }()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Error(err)
			}
			pipe.Close()
		})
	}
	t.Cleanup(stop)
	return pc.LocalAddr().String(), stop
}

// waitFor polls the pipeline's counters until cond holds.
func waitFor(t *testing.T, pipe *ingest.Pipeline, what string, cond func(ingest.Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond(pipe.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, pipe.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestExporterCollectorEndToEnd(t *testing.T) {
	pipe, rec := newPipeline(t, 0)
	addr, stop := serveUDP(t, pipe)
	exp, err := netflow.NewExporter(addr, 1000)
	if err != nil {
		t.Fatal(err)
	}
	const total = 95 // forces 3 full packets + 1 partial flush
	start := time.Now().Add(-30 * time.Second)
	for i := 0; i < total; i++ {
		r := netflow.Record{
			Src:     netip.AddrFrom4([4]byte{11, 0, byte(i / 250), byte(i%250 + 1)}),
			Dst:     netip.MustParseAddr("23.1.1.1"),
			SrcPort: uint16(1000 + i),
			DstPort: 53,
			Proto:   netflow.ProtoUDP,
			Packets: uint32(i + 1),
			Bytes:   uint32((i + 1) * 64),
			Start:   start,
			End:     start.Add(time.Second),
		}
		if err := exp.Export(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Close(); err != nil {
		t.Fatal(err)
	}
	if exp.Sent() != total {
		t.Fatalf("Sent = %d, want %d", exp.Sent(), total)
	}
	waitFor(t, pipe, "every record", func(s ingest.Stats) bool { return s.Records == total })
	stop()
	if len(rec.recs) != total {
		t.Fatalf("sealed %d records, want %d", len(rec.recs), total)
	}
	for _, r := range rec.recs {
		if r.Proto != netflow.ProtoUDP || r.DstPort != 53 {
			t.Fatalf("corrupted record: %+v", r)
		}
	}
	if st := pipe.Stats(); st.BadPackets != 0 || st.LostRecords != 0 || st.DroppedLate != 0 {
		t.Fatalf("clean export shows faults: %+v", st)
	}
}

// TestExporterRecordClockRoundTrip pins the BootTime (record-clock) mode:
// simulated flow timestamps far in the past must survive the encode/decode
// round trip to millisecond precision instead of being clamped into the
// exporter's wall-clock epoch. The pipeline's aggregation workers seal
// steps by these timestamps, so clamping would collapse a replayed window
// into a single bucket.
func TestExporterRecordClockRoundTrip(t *testing.T) {
	pipe, rec := newPipeline(t, time.Hour)
	addr, stop := serveUDP(t, pipe)
	base := time.Date(2019, 7, 3, 12, 0, 0, 0, time.UTC) // nowhere near time.Now()
	exp, err := netflow.NewExporterWithConfig(netflow.ExporterConfig{
		Addr:     addr,
		Sampling: 1,
		BootTime: base.Add(-time.Minute),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()

	const total = 40 // spans two datagrams
	want := make(map[netip.Addr]netflow.Record, total)
	for i := 0; i < total; i++ {
		start := base.Add(time.Duration(i) * time.Minute)
		r := netflow.Record{
			Src:     netip.AddrFrom4([4]byte{11, 0, 0, byte(i + 1)}),
			Dst:     netip.MustParseAddr("23.1.1.1"),
			SrcPort: uint16(1000 + i), DstPort: 53, Proto: netflow.ProtoUDP,
			Packets: uint32(i + 1), Bytes: uint32((i + 1) * 64),
			Start: start, End: start.Add(30 * time.Second),
		}
		want[r.Src] = r
		if err := exp.Export(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, pipe, "every record", func(s ingest.Stats) bool { return s.Records == total })
	stop()
	if len(rec.recs) != total {
		t.Fatalf("sealed %d records, want %d", len(rec.recs), total)
	}
	for _, got := range rec.recs {
		w := want[got.Src]
		if !got.Start.Equal(w.Start) || !got.End.Equal(w.End) {
			t.Fatalf("record %v timestamps clamped: got [%v, %v], want [%v, %v]",
				got.Src, got.Start, got.End, w.Start, w.End)
		}
	}
	if st := pipe.Stats(); st.Steps != total {
		t.Fatalf("%d records a minute apart sealed into %d steps, want %d", total, st.Steps, total)
	}
}

func TestCollectorIgnoresGarbageDatagrams(t *testing.T) {
	pipe, rec := newPipeline(t, 0)
	addr, stop := serveUDP(t, pipe)
	garbage, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer garbage.Close()
	if _, err := garbage.Write([]byte("this is not netflow")); err != nil {
		t.Fatal(err)
	}
	// Then a valid record; it must still arrive.
	exp, err := netflow.NewExporter(addr, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer exp.Close()
	r := netflow.Record{
		Src: netip.MustParseAddr("11.1.1.1"), Dst: netip.MustParseAddr("23.1.1.1"),
		Proto: netflow.ProtoICMP, Packets: 1, Bytes: 64,
		Start: time.Now().Add(-time.Second), End: time.Now(),
	}
	if err := exp.Export(r); err != nil {
		t.Fatal(err)
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, pipe, "the bad and the good datagram", func(s ingest.Stats) bool {
		return s.BadPackets == 1 && s.Records == 1
	})
	stop()
	if len(rec.recs) != 1 || rec.recs[0].Proto != netflow.ProtoICMP {
		t.Fatalf("sealed %+v, want the one ICMP record", rec.recs)
	}
}

func TestChaosPipeCollectorSeparatesLossClasses(t *testing.T) {
	pipe, rec := newPipeline(t, 0)
	chaos := netflow.NewChaosPipe(pipe, "exporter-1", netflow.ChaosConfig{
		Seed: 42, DropRate: 0.10, DupRate: 0.05, ReorderRate: 0.05,
	})
	exp, err := netflow.NewExporterWithConfig(netflow.ExporterConfig{
		Sampling: 1,
		Dial:     func() (net.Conn, error) { return chaos, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 3000
	for i := 0; i < total; i++ {
		if err := exp.Export(netflow.TestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := exp.Sent(); got != total {
		t.Fatalf("Sent = %d, want %d", got, total)
	}
	pipe.Close()

	cs := chaos.Stats()
	st := pipe.Stats()
	if cs.Dropped == 0 || cs.Duplicated == 0 || cs.Reordered == 0 {
		t.Fatalf("chaos did not exercise all faults: %+v", cs)
	}
	// Duplicate datagrams are delivered immediately after their original,
	// so every one must be caught by the recently-seen ring.
	if st.DupPackets != cs.Duplicated {
		t.Fatalf("DupPackets = %d, chaos duplicated %d", st.DupPackets, cs.Duplicated)
	}
	// Reordered datagrams are delivered one write late and show up as
	// out-of-order arrivals — unless the intervening write was itself
	// dropped, in which case they arrive effectively in order. So the
	// pipeline sees at most (and usually about) as many as were injected.
	if st.ReorderedPackets == 0 || st.ReorderedPackets > cs.Reordered {
		t.Fatalf("ReorderedPackets = %d, chaos reordered %d", st.ReorderedPackets, cs.Reordered)
	}
	if st.LostRecords == 0 {
		t.Fatal("10% datagram loss must surface as sequence-gap records")
	}
	// Conservation: every exported record is either delivered or charged
	// as lost, modulo a trailing dropped datagram no later packet reveals.
	delivered := uint64(len(rec.recs))
	if delivered != st.Records || st.DroppedLate != 0 {
		t.Fatalf("steps hold %d records, stats say %d decoded (%d late)", delivered, st.Records, st.DroppedLate)
	}
	if got := delivered + st.LostRecords; got > total || got < total-netflow.MaxRecordsPerPacket {
		t.Fatalf("delivered(%d) + lost(%d) = %d, want within one datagram of %d",
			delivered, st.LostRecords, got, total)
	}
}

func TestExporterReconnectsAfterWriteFailure(t *testing.T) {
	pipe, rec := newPipeline(t, 0)
	// Fail roughly half the writes: the exporter must keep records
	// pending across failures, redial, and eventually deliver everything
	// (chaos write failures are pre-send, so no datagrams are lost).
	var dials int
	exp, err := netflow.NewExporterWithConfig(netflow.ExporterConfig{
		Sampling:    1,
		BaseBackoff: time.Microsecond,
		MaxBackoff:  10 * time.Microsecond,
		Dial: func() (net.Conn, error) {
			dials++
			return netflow.NewChaosPipe(pipe, "exporter-1", netflow.ChaosConfig{Seed: int64(dials), FailRate: 0.5}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 2000
	for i := 0; i < total; i++ {
		if err := exp.Export(netflow.TestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for exp.Sent() < total {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d sent: %+v", exp.Sent(), total, exp.Stats())
		}
		if err := exp.Flush(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Microsecond)
	}
	es := exp.Stats()
	if es.WriteErrors == 0 || es.Reconnects == 0 {
		t.Fatalf("expected write errors and reconnects: %+v", es)
	}
	pipe.Close()
	st := pipe.Stats()
	// Each reconnect restarts the chaos conn but the v5 sequence keeps
	// counting, so the pipeline must see a contiguous stream: no loss.
	if st.LostRecords != 0 {
		t.Fatalf("pre-send failures must not lose records: %+v", st)
	}
	if st.Records != total || len(rec.recs) != total {
		t.Fatalf("Records = %d, sealed %d, want %d", st.Records, len(rec.recs), total)
	}
}

func TestChaosConnOverRealUDP(t *testing.T) {
	// The same chaos schedule over a real kernel socket: content is
	// deterministic, timing is not, so assertions are structural.
	pipe, rec := newPipeline(t, 0)
	addr, stop := serveUDP(t, pipe)
	exp, err := netflow.NewExporterWithConfig(netflow.ExporterConfig{
		Sampling: 1,
		Dial: func() (net.Conn, error) {
			conn, err := net.Dial("udp", addr)
			if err != nil {
				return nil, err
			}
			return netflow.NewChaosConn(conn, netflow.ChaosConfig{Seed: 99, DropRate: 0.1, DupRate: 0.05}), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const total = 1500
	for i := 0; i < total; i++ {
		if err := exp.Export(netflow.TestRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := exp.Flush(); err != nil {
		t.Fatal(err)
	}
	// Wait until the decoded count stops moving.
	for last, idle := uint64(0), 0; idle < 20; {
		time.Sleep(10 * time.Millisecond)
		if n := pipe.Stats().Records; n != last {
			last, idle = n, 0
		} else {
			idle++
		}
	}
	exp.Close()
	stop()
	st := pipe.Stats()
	received := uint64(len(rec.recs))
	if received == 0 || st.LostRecords == 0 {
		t.Fatalf("received=%d stats=%+v: expected both delivery and loss", received, st)
	}
	if st.DupPackets == 0 {
		t.Fatalf("5%% duplication over %d datagrams must surface: %+v", total/netflow.MaxRecordsPerPacket, st)
	}
	if got := received + st.LostRecords; got > total || got+netflow.MaxRecordsPerPacket < total {
		t.Fatalf("received(%d) + lost(%d) not within one datagram of %d", received, st.LostRecords, total)
	}
}
