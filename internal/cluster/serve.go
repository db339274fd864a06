package cluster

import (
	"fmt"
	"io"
	"net/netip"
	"os"
	"sync"
	"time"

	"github.com/xatu-go/xatu/internal/ingest"
	"github.com/xatu-go/xatu/internal/netflow"
)

// IngestStats snapshots the node's ingest pipeline counters.
func (n *Node) IngestStats() ingest.Stats { return n.pipe.Stats() }

// Replay streams a flow journal through route, sealing steps by the live
// aggregation workers' rule (netflow.Aggregator), so it replays the steps
// a live run of the same flows seals. A step owned by a peer waits for
// room on its forwarder rather than being dropped. Replay returns the
// records read and those dropped as late once every forwarded step is
// posted and the engine has drained. It needs an applied table: in fleet
// mode, call it after WaitReady.
func (n *Node) Replay(r io.Reader) (records, late uint64, err error) {
	jr, err := netflow.NewJournalReader(r)
	if err != nil {
		return 0, 0, err
	}
	agg := netflow.NewAggregator(n.cfg.Step, n.cfg.Lateness)
	submit := func(sealed []netflow.StepBatch) error {
		for _, b := range sealed {
			for customer, flows := range b.ByDst {
				if err := n.route(WireStep{Customer: customer, At: b.Start, Flows: flows}, true); err != nil {
					return err
				}
			}
			agg.Recycle(b) // route copied the records it keeps
		}
		return nil
	}
	for err == nil {
		var rec netflow.Record
		if rec, err = jr.Next(); err == nil {
			err = submit(agg.Add(rec))
		}
	}
	if err == io.EOF {
		if err = submit(agg.Flush()); err == nil {
			n.awaitForwarders()
			err = n.eng.Drain()
		}
	}
	return jr.Count(), agg.Dropped(), err
}

// restore loads cfg.Checkpoint when it exists; applyTable cuts it to this
// node's customers once the first table lands.
func (n *Node) restore() error {
	if n.cfg.Checkpoint == "" {
		return nil
	}
	f, err := os.Open(n.cfg.Checkpoint)
	if os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	defer f.Close()
	if err := n.eng.Restore(f); err != nil {
		return fmt.Errorf("restoring %s: %w", n.cfg.Checkpoint, err)
	}
	n.restored = true
	n.cfg.Logf("restored detector state from %s", n.cfg.Checkpoint)
	return nil
}

// checkpointLoop saves cfg.Checkpoint from the engine's background
// per-shard snapshots every CheckpointEvery, without stalling ingest.
func (n *Node) checkpointLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.saveCheckpoint(false)
		}
	}
}

// saveCheckpoint writes the engine state to cfg.Checkpoint by tmp +
// rename, so a crash mid-save never corrupts the previous file. A barrier
// save (the last one) drains the engine for a consistent cut; an
// incremental one reads the background snapshots, each up to the
// engine's snapshot interval old.
func (n *Node) saveCheckpoint(barrier bool) {
	n.ckptMu.Lock()
	defer n.ckptMu.Unlock()
	if n.cfg.Checkpoint == "" || n.ckptClosed {
		return
	}
	n.ckptClosed = barrier
	write := n.eng.CheckpointIncremental
	if barrier {
		write = n.eng.Checkpoint
	}
	tmp := n.cfg.Checkpoint + ".tmp"
	f, err := os.Create(tmp)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = os.Rename(tmp, n.cfg.Checkpoint)
	}
	if err != nil {
		os.Remove(tmp)
		n.cfg.Logf("checkpoint: %v", err)
		return
	}
	n.cfg.Logf("checkpointed detector state to %s", n.cfg.Checkpoint)
}

// stepSink is the part of the engine a gapFiller drives.
type stepSink interface {
	Submit(customer netip.Addr, at time.Time, flows []netflow.Record) error
	ObserveMissing(customer netip.Addr, at time.Time) error
}

// maxGapSteps bounds the missing steps reported for one return: a corrupt
// far-future record time must not queue millions of them on a shard. At
// 2-minute steps it covers 5.7 days; a longer absence is filled only
// that far.
const maxGapSteps = 1 << 12

// gapFiller feeds owned steps to the engine, first reporting each step
// the customer skipped since its previous one to ObserveMissing: the lazy
// form of a missing-step observation at every elapsed step, which gives
// the same alerts and state since ObserveMissing never alerts. Safe for
// concurrent use (aggregation workers and the control plane submit).
type gapFiller struct {
	eng  stepSink
	step time.Duration
	mu   sync.Mutex
	last map[netip.Addr]time.Time
}

func newGapFiller(eng stepSink, step time.Duration) *gapFiller {
	if step <= 0 {
		step = time.Minute // the aggregator's default
	}
	return &gapFiller{eng: eng, step: step, last: make(map[netip.Addr]time.Time)}
}

// Submit forwards one step after the missing steps before it.
func (g *gapFiller) Submit(customer netip.Addr, at time.Time, flows []netflow.Record) error {
	g.mu.Lock()
	prev, seen := g.last[customer]
	if !seen || at.After(prev) {
		g.last[customer] = at
	}
	g.mu.Unlock()
	if seen {
		t := prev.Add(g.step)
		for n := 0; n < maxGapSteps && t.Before(at); n++ {
			if err := g.eng.ObserveMissing(customer, t); err != nil {
				return err
			}
			t = t.Add(g.step)
		}
	}
	return g.eng.Submit(customer, at, flows)
}

// forget drops the last step of every customer pred matches, whose state
// the node no longer holds. A nil gapFiller has nothing to forget.
func (g *gapFiller) forget(pred func(netip.Addr) bool) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for c := range g.last {
		if pred(c) {
			delete(g.last, c)
		}
	}
}
