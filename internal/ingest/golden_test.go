package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/core"
	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/features"
	"github.com/xatu-go/xatu/internal/netflow"
)

var writeFloodJournal = flag.Bool("write-flood-journal", false,
	"rewrite testdata/flood.journal from floodJournalRecords instead of reading it")

const floodJournalPath = "testdata/flood.journal"

// goldenWireDigest is the SHA-256 of TestWireToAlertGoldenDigest's sorted
// alert lines and canonical XMC1 checkpoint, recorded while aggregation
// workers still sorted every sealed bucket into the canonical record order
// before handing it on. An equal digest says the wire-to-alert bytes do
// not depend on that sort.
const goldenWireDigest = "0ac470cbaec2bd33b3172d15919eb92ae2574af063382e044dfd902bca2b02f6"

// Flood journal geometry: six customers over 32 one-minute steps, a UDP
// flood on one of them and a SYN flood on another.
const (
	floodSteps     = 32
	floodCustomers = 6
	udpVictim      = 1
	udpFrom        = 18
	synVictim      = 4
	synFrom        = 22
	floodLen       = 6
)

func floodCustomer(i int) netip.Addr { return netip.AddrFrom4([4]byte{198, 51, 100, byte(i + 1)}) }

// floodJournalRecords builds the journal's records: each step's records
// for every customer, shuffled together, steps in order. Timestamps are
// whole milliseconds so the journal and the v5 wire carry them exactly.
func floodJournalRecords() []netflow.Record {
	rng := rand.New(rand.NewSource(43))
	var out []netflow.Record
	for s := 0; s < floodSteps; s++ {
		at := t0.Add(time.Duration(s) * time.Minute)
		var step []netflow.Record
		add := func(c int, r netflow.Record) {
			r.Dst = floodCustomer(c)
			r.Start = at.Add(time.Duration(rng.Intn(55_000)) * time.Millisecond)
			r.End = r.Start.Add(time.Duration(rng.Intn(5_000)) * time.Millisecond)
			step = append(step, r)
		}
		for c := 0; c < floodCustomers; c++ {
			for j := 2 + rng.Intn(5); j > 0; j-- {
				pk := uint32(1 + rng.Intn(20))
				r := netflow.Record{
					Src:      netip.AddrFrom4([4]byte{100, 64, byte(rng.Intn(4)), byte(1 + rng.Intn(10))}),
					Proto:    netflow.ProtoTCP,
					TCPFlags: netflow.FlagACK | netflow.FlagPSH,
					SrcPort:  uint16(32768 + rng.Intn(28000)),
					DstPort:  443,
					Packets:  pk,
					Bytes:    pk * uint32(60+rng.Intn(1400)),
					SrcAS:    uint16(64500 + rng.Intn(8)),
				}
				if rng.Intn(4) == 0 {
					r.Proto, r.TCPFlags, r.DstPort = netflow.ProtoUDP, 0, 53
				}
				if rng.Intn(20) == 0 {
					r.Src = netip.AddrFrom4([4]byte{11, 1, 1, 1}) // blocklisted
				}
				add(c, r)
			}
		}
		if s >= udpFrom && s < udpFrom+floodLen {
			for j := 0; j < 120; j++ {
				pk := uint32(50 + rng.Intn(200))
				add(udpVictim, netflow.Record{
					Src:     netip.AddrFrom4([4]byte{11, byte(rng.Intn(4)), byte(rng.Intn(256)), byte(1 + rng.Intn(254))}),
					Proto:   netflow.ProtoUDP,
					SrcPort: 123,
					DstPort: uint16(1024 + rng.Intn(60000)),
					Packets: pk,
					Bytes:   pk * uint32(400+rng.Intn(1000)),
					SrcAS:   uint16(64600 + rng.Intn(30)),
				})
			}
		}
		if s >= synFrom && s < synFrom+floodLen {
			for j := 0; j < 80; j++ {
				pk := uint32(1 + rng.Intn(40))
				add(synVictim, netflow.Record{
					Src:      netip.AddrFrom4([4]byte{11, 9, byte(rng.Intn(256)), byte(1 + rng.Intn(254))}),
					Proto:    netflow.ProtoTCP,
					TCPFlags: netflow.FlagSYN,
					SrcPort:  uint16(1024 + rng.Intn(60000)),
					DstPort:  80,
					Packets:  pk,
					Bytes:    pk * 60,
					SrcAS:    uint16(64600 + rng.Intn(30)),
				})
			}
		}
		rng.Shuffle(len(step), func(i, j int) { step[i], step[j] = step[j], step[i] })
		out = append(out, step...)
	}
	return out
}

// readFloodJournal reads testdata/flood.journal, or with
// -write-flood-journal first rewrites it from floodJournalRecords.
func readFloodJournal(t *testing.T) []netflow.Record {
	t.Helper()
	if *writeFloodJournal {
		var b bytes.Buffer
		w, err := netflow.NewJournalWriter(&b)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range floodJournalRecords() {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(floodJournalPath, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(floodJournalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	jr, err := netflow.NewJournalReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var recs []netflow.Record
	for {
		r, err := jr.Next()
		if err == io.EOF {
			return recs
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r)
	}
}

// journalPackets encodes records, in order, into v5 datagrams of up to 30
// records, dealt round-robin to two exporters, whose flow sequences
// continue from seqs.
func journalPackets(t *testing.T, recs []netflow.Record, seqs *[2]uint32) []srcPacket {
	t.Helper()
	boot := t0.Add(-time.Hour)
	var out []srcPacket
	for off, k := 0, 0; off < len(recs); off, k = off+netflow.MaxRecordsPerPacket, k+1 {
		batch := recs[off:min(off+netflow.MaxRecordsPerPacket, len(recs))]
		export := batch[0].End
		for _, r := range batch {
			if r.End.After(export) {
				export = r.End
			}
		}
		src := k % 2
		pkt, err := netflow.EncodeV5(batch, boot, export.Add(time.Second), seqs[src], 1)
		if err != nil {
			t.Fatal(err)
		}
		seqs[src] += uint32(len(batch))
		out = append(out, srcPacket{src: fmt.Sprintf("192.0.2.%d:2055", src+1), pkt: pkt})
	}
	return out
}

// floodModel trains a small model on the journal's own normalized
// feature sequences, one example per customer, the two victims labelled
// at their flood's first step.
func floodModel(t *testing.T, packets []srcPacket) *core.Model {
	t.Helper()
	var mu sync.Mutex
	seqs := map[netip.Addr][][]float64{}
	p, err := New(Config{
		DecodeWorkers: 1, AggWorkers: 1, Step: time.Minute, Lateness: time.Hour,
		Extractor: testExtractor(),
		OnStep: func(c netip.Addr, _ time.Time, feat []float64, _ []netflow.Record) {
			x := slices.Clone(feat)
			features.Normalize(x)
			mu.Lock()
			seqs[c] = append(seqs[c], x)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range packets {
		p.HandlePacket(sp.src, sp.pkt)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	var examples []core.Example
	for i := 0; i < floodCustomers; i++ {
		x := seqs[floodCustomer(i)]
		if len(x) != floodSteps {
			t.Fatalf("customer %d: %d steps extracted, want %d", i, len(x), floodSteps)
		}
		ex := core.Example{X: x}
		switch i {
		case udpVictim:
			ex.Attack, ex.AttackStep = true, udpFrom
		case synVictim:
			ex.Attack, ex.AttackStep = true, synFrom
		}
		examples = append(examples, ex)
	}
	cfg := core.DefaultConfig(features.NumFeatures)
	cfg.Hidden = 6
	cfg.PoolShort, cfg.PoolMed, cfg.PoolLong = 1, 2, 4
	cfg.Window = 8
	m, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Fit(examples, core.TrainOptions{Epochs: 20, BatchSize: 2, Workers: 1, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	return m
}

// replayWireToAlert feeds packets through a pipeline with aggWorkers
// aggregation workers into an engine with shards shards, and returns the
// sorted alert lines and the final checkpoint re-written by a one-shard
// engine (so the bytes do not depend on the shard count).
func replayWireToAlert(t *testing.T, packets []srcPacket, mcfg engine.MonitorConfig, shards, aggWorkers int) ([]string, []byte) {
	t.Helper()
	eng, err := engine.New(engine.Config{Monitor: mcfg, Shards: shards, Policy: engine.Block,
		AlertBuffer: 1 << 12, Watchdog: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	// The two exporters' decode workers can drift apart by a queue of
	// packets, so the lateness allowance covers the whole journal.
	p, err := New(Config{DecodeWorkers: 2, AggWorkers: aggWorkers, Step: time.Minute,
		Lateness: time.Hour, Sink: eng})
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range packets {
		p.HandlePacket(sp.src, sp.pkt)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); st.DroppedLate != 0 || st.LostRecords != 0 {
		t.Fatalf("pipeline dropped %d records late and lost %d", st.DroppedLate, st.LostRecords)
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	// Drain returns once every step's alerts are in the channel; Stats
	// says how many there are.
	n := eng.Stats().Alerts
	if n >= 1<<12 {
		t.Fatalf("%d alerts overflow the alert buffer", n)
	}
	var lines []string
	for ; n > 0; n-- {
		ev := <-eng.Alerts()
		lines = append(lines, fmt.Sprintf("%s ALERT %s victim=%s",
			ev.At.UTC().Format(time.RFC3339), ev.Alert.Sig.Type, ev.Customer))
	}
	slices.Sort(lines)
	var ckpt bytes.Buffer
	if err := eng.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	one, err := engine.New(engine.Config{Monitor: mcfg, Shards: 1, Watchdog: -1, CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer one.Close()
	if err := one.Restore(&ckpt); err != nil {
		t.Fatal(err)
	}
	var canon bytes.Buffer
	if err := one.Checkpoint(&canon); err != nil {
		t.Fatal(err)
	}
	return lines, canon.Bytes()
}

// TestWireToAlertGoldenDigest replays a committed flow journal holding
// two floods as NetFlow v5 datagrams from two exporters through the
// ingest pipeline into the engine, at 1 and 2 shards and 1 and 2
// aggregation workers, with a model trained on the journal. Every
// combination must produce the same alerts and detector state, equal to
// the recorded digest.
func TestWireToAlertGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digest recorded on amd64; other ports may fuse multiply-adds")
	}
	packets := journalPackets(t, readFloodJournal(t), new([2]uint32))
	mcfg := engine.MonitorConfig{
		Default:   floodModel(t, packets),
		Extractor: testExtractor(),
		// Every alert at this threshold fires on a victim during or just
		// after its flood.
		Threshold:         0.15,
		MitigationTimeout: 4 * time.Minute,
	}
	for _, shards := range []int{1, 2} {
		for _, aggWorkers := range []int{1, 2} {
			lines, ckpt := replayWireToAlert(t, packets, mcfg, shards, aggWorkers)
			if len(lines) == 0 {
				t.Fatalf("shards=%d aggWorkers=%d: no alerts; the fixture is broken", shards, aggWorkers)
			}
			sum := sha256.New()
			io.WriteString(sum, strings.Join(lines, "\n"))
			sum.Write(ckpt)
			if got := hex.EncodeToString(sum.Sum(nil)); got != goldenWireDigest {
				t.Errorf("shards=%d aggWorkers=%d: digest %s, want %s (%d alerts: %s … %s)", shards, aggWorkers,
					got, goldenWireDigest, len(lines), lines[0], lines[len(lines)-1])
			}
		}
	}
}

// tickPackets encodes the journal one step (tick) at a time, each tick's
// records in journal order dealt into datagrams round-robin over two
// exporters; with rng set, each tick's datagrams are then shuffled.
func tickPackets(t *testing.T, recs []netflow.Record, rng *rand.Rand) []srcPacket {
	t.Helper()
	var seqs [2]uint32
	var out []srcPacket
	for from := 0; from < len(recs); {
		tick := recs[from].Start.Truncate(time.Minute)
		to := from
		for to < len(recs) && recs[to].Start.Truncate(time.Minute).Equal(tick) {
			to++
		}
		pkts := journalPackets(t, recs[from:to], &seqs)
		if rng != nil {
			rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
		}
		out = append(out, pkts...)
		from = to
	}
	return out
}

// TestPipelineShuffledTicksMatchInOrder feeds each tick's datagrams in a
// shuffled order — the records of a step reach the aggregation workers in
// a different order — and requires the alerts and the detector state of
// the in-order run: what the canonical in-bucket sort once guaranteed,
// and what exact extraction guarantees without it.
func TestPipelineShuffledTicksMatchInOrder(t *testing.T) {
	recs := readFloodJournal(t)
	inOrder := tickPackets(t, recs, nil)
	mcfg := engine.MonitorConfig{
		Default:           floodModel(t, inOrder),
		Extractor:         testExtractor(),
		Threshold:         0.15,
		MitigationTimeout: 4 * time.Minute,
	}
	for _, aggWorkers := range []int{1, 3} {
		wantLines, wantCkpt := replayWireToAlert(t, inOrder, mcfg, 2, aggWorkers)
		if len(wantLines) == 0 {
			t.Fatal("the in-order run raised no alerts; the fixture is broken")
		}
		for seed := int64(1); seed <= 3; seed++ {
			lines, ckpt := replayWireToAlert(t, tickPackets(t, recs, rand.New(rand.NewSource(seed))), mcfg, 2, aggWorkers)
			if !slices.Equal(lines, wantLines) {
				t.Errorf("aggWorkers=%d shuffle %d: alerts\n%s\nwant\n%s", aggWorkers, seed,
					strings.Join(lines, "\n"), strings.Join(wantLines, "\n"))
			}
			if !bytes.Equal(ckpt, wantCkpt) {
				t.Errorf("aggWorkers=%d shuffle %d: checkpoint differs from the in-order run's", aggWorkers, seed)
			}
		}
	}
}
