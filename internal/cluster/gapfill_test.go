package cluster

import (
	"bytes"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/engine"
	"github.com/xatu-go/xatu/internal/netflow"
)

// TestGapFillerMatchesEagerMissingSteps pins the lazy gap fill: a customer
// that goes quiet for k steps and comes back must raise the same alerts,
// and leave the engine with the same XMC1 checkpoint bytes, as a
// missing-step observation at every step it was quiet.
func TestGapFillerMatchesEagerMissingSteps(t *testing.T) {
	const step = 2 * time.Minute
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	steady := netip.MustParseAddr("203.0.113.1")
	quiet := netip.MustParseAddr("203.0.113.2")
	// Two quiet spells: one longer than the 10-minute mitigation timeout,
	// so an eager missing step ends a diversion mid-spell.
	isQuiet := func(c netip.Addr, s int) bool {
		return c == quiet && (s >= 6 && s < 6+7 || s >= 20 && s < 22)
	}
	flows := func(c netip.Addr, s int) []netflow.Record {
		at := t0.Add(time.Duration(s) * step)
		return []netflow.Record{{
			Src: netip.AddrFrom4([4]byte{11, 1, byte(s), 1}), Dst: c,
			Proto: netflow.ProtoUDP, SrcPort: uint16(1024 + s), DstPort: 80,
			Packets: 10, Bytes: 6000, Start: at, End: at.Add(time.Minute),
		}}
	}

	// run feeds 30 steps of both customers, through a gapFiller (lazy) or
	// with a missing-step observation at each quiet step (eager).
	run := func(lazy bool) ([]string, []byte) {
		cfg := tinyEngineConfig(t)
		cfg.Policy, cfg.Step = engine.Block, step
		eng, err := engine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		alerts := make(chan []string)
		go func() {
			var got []string
			for ev := range eng.Alerts() {
				got = append(got, fmt.Sprintf("%v %v %s", ev.Customer, ev.Alert.Sig.Type, ev.At.Format(time.RFC3339)))
			}
			sort.Strings(got)
			alerts <- got
		}()
		submit := eng.Submit
		if lazy {
			submit = newGapFiller(eng, step).Submit
		}
		for s := 0; s < 30; s++ {
			at := t0.Add(time.Duration(s) * step)
			for _, c := range []netip.Addr{steady, quiet} {
				switch {
				case !isQuiet(c, s):
					err = submit(c, at, flows(c, s))
				case !lazy:
					err = eng.ObserveMissing(c, at)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		var ck bytes.Buffer
		if err := eng.Checkpoint(&ck); err != nil {
			t.Fatal(err)
		}
		eng.Close()
		return <-alerts, ck.Bytes()
	}

	wantAlerts, wantCkpt := run(false)
	gotAlerts, gotCkpt := run(true)
	if len(wantAlerts) == 0 {
		t.Fatal("the eager run raised no alert; the fixture is broken")
	}
	if fmt.Sprint(gotAlerts) != fmt.Sprint(wantAlerts) {
		t.Fatalf("alerts differ:\nlazy  %v\neager %v", gotAlerts, wantAlerts)
	}
	if !bytes.Equal(gotCkpt, wantCkpt) {
		t.Fatalf("checkpoints differ: lazy %d bytes, eager %d bytes", len(gotCkpt), len(wantCkpt))
	}
}

// countingSink counts the steps and missing steps a gapFiller forwards.
type countingSink struct {
	mu             sync.Mutex
	steps, missing map[netip.Addr]int
	lastMissing    map[netip.Addr]time.Time
}

func (c *countingSink) Submit(customer netip.Addr, _ time.Time, _ []netflow.Record) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.steps[customer]++
	return nil
}

func (c *countingSink) ObserveMissing(customer netip.Addr, at time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.missing[customer]++
	c.lastMissing[customer] = at
	return nil
}

// TestGapFillerConcurrentAndBounded drives one gapFiller from several
// goroutines, as the pipeline's aggregation workers do, each owning its
// own customers: every skipped step is reported once, and a corrupt
// far-future step time reports at most maxGapSteps of them.
func TestGapFillerConcurrentAndBounded(t *testing.T) {
	const step = 2 * time.Minute
	t0 := time.Date(2019, 7, 3, 0, 0, 0, 0, time.UTC)
	sink := &countingSink{steps: map[netip.Addr]int{}, missing: map[netip.Addr]int{}, lastMissing: map[netip.Addr]time.Time{}}
	g := newGapFiller(sink, step)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < 8; c++ {
				customer := netip.AddrFrom4([4]byte{203, 0, byte(w), byte(c)})
				for s := 0; s < 40; s++ {
					if s%5 == 1 || s%5 == 2 { // two quiet steps in every five
						continue
					}
					if err := g.Submit(customer, t0.Add(time.Duration(s)*step), nil); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for c, n := range sink.steps {
		if n != 24 || sink.missing[c] != 16 {
			t.Fatalf("%v: %d steps and %d missing, want 24 and 16", c, n, sink.missing[c])
		}
	}
	if len(sink.steps) != 32 {
		t.Fatalf("%d customers, want 32", len(sink.steps))
	}

	far := netip.MustParseAddr("198.51.100.1")
	g.Submit(far, t0, nil)
	g.Submit(far, t0.Add(100*365*24*time.Hour), nil)
	if n := sink.missing[far]; n != maxGapSteps {
		t.Fatalf("a century-long gap reported %d missing steps, want the bound %d", n, maxGapSteps)
	}
	if want := t0.Add(maxGapSteps * step); !sink.lastMissing[far].Equal(want) {
		t.Fatalf("last missing step at %v, want %v", sink.lastMissing[far], want)
	}
}
