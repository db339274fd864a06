// Command ispgen generates a synthetic ISP world and either prints a
// summary of its traffic and attack schedule or exports the flow records of
// a time range as NetFlow v5 datagrams to a collector (see xatu-detect),
// or writes them to a flow journal (xatu-detect -replay).
//
// Usage:
//
//	ispgen -days 5 -summary
//	ispgen -export 127.0.0.1:2055 -from 0 -to 720 -sample 10
//	ispgen -journal trace.xfj -to 720
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/simnet"
)

func main() {
	var (
		days      = flag.Int("days", 5, "simulated days")
		seed      = flag.Int64("seed", 1, "world seed")
		customers = flag.Int("customers", 10, "number of customers")
		stepMin   = flag.Int("step", 2, "step minutes (xatu-train trains and xatu-detect aggregates at 2)")
		summary   = flag.Bool("summary", false, "print world summary and exit")
		export    = flag.String("export", "", "collector address to export NetFlow v5 to")
		journal   = flag.String("journal", "", "write flow records to a journal file instead of exporting")
		from      = flag.Int("from", 0, "first step to export")
		to        = flag.Int("to", 360, "exclusive last step to export")
		sample    = flag.Int("sample", 1, "1:N packet sampling before export")
		rate      = flag.Duration("rate", 0, "pause between exported steps (0 = as fast as possible)")
	)
	flag.Parse()

	cfg := simnet.DefaultConfig()
	cfg.Days = *days
	cfg.Seed = *seed
	cfg.NumCustomers = *customers
	cfg.Step = time.Duration(*stepMin) * time.Minute
	w, err := simnet.NewWorld(cfg)
	if err != nil {
		fatal("%v", err)
	}

	if *summary || (*export == "" && *journal == "") {
		printSummary(w)
		if *export == "" && *journal == "" {
			return
		}
	}
	if *to > cfg.Steps() {
		*to = cfg.Steps()
	}
	if *journal != "" {
		writeJournal(w, *journal, *from, *to)
		return
	}

	// Export on the record clock: the detector seals steps by flow event
	// time, so datagrams must carry the simulated timestamps instead of
	// clamping them into the wall-clock epoch.
	exp, err := netflow.NewExporterWithConfig(netflow.ExporterConfig{
		Addr:     *export,
		Sampling: uint16(*sample),
		BootTime: cfg.TimeOf(*from).Add(-time.Minute),
	})
	if err != nil {
		fatal("%v", err)
	}
	defer exp.Close()
	sampler := netflow.NewSampler(*sample, rand.New(rand.NewSource(*seed)))

	var sent, dropped uint64
	for s := *from; s < *to; s++ {
		for ci := range w.Customers {
			for _, r := range w.FlowsAt(ci, s) {
				out, ok := sampler.Sample(r)
				if !ok {
					dropped++
					continue
				}
				if err := exp.Export(out); err != nil {
					fatal("export: %v", err)
				}
				sent++
			}
		}
		if err := exp.Flush(); err != nil {
			fatal("flush: %v", err)
		}
		if *rate > 0 {
			time.Sleep(*rate)
		}
	}
	fmt.Printf("exported %d flow records (%d sampled away) for steps [%d,%d) to %s\n",
		sent, dropped, *from, *to, *export)
}

// writeJournal persists flows for steps [from, to) to a journal file.
func writeJournal(w *simnet.World, path string, from, to int) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	jw, err := netflow.NewJournalWriter(f)
	if err != nil {
		fatal("%v", err)
	}
	for s := from; s < to; s++ {
		for ci := range w.Customers {
			for _, r := range w.FlowsAt(ci, s) {
				if err := jw.Write(r); err != nil {
					fatal("journal: %v", err)
				}
			}
		}
	}
	if err := jw.Flush(); err != nil {
		fatal("journal: %v", err)
	}
	fmt.Printf("wrote %d flow records for steps [%d,%d) to %s\n", jw.Count(), from, to, path)
}

func printSummary(w *simnet.World) {
	fmt.Println(w)
	byType := map[string]int{}
	for i := range w.Events {
		byType[w.Events[i].Type.String()]++
	}
	fmt.Printf("attack schedule: %d events: %v\n", len(w.Events), byType)
	if len(w.Events) > 0 {
		ev := &w.Events[0]
		fmt.Printf("first attack: %v on %v at step %d (%.1f Mbps peak, %d steps, %d prep days)\n",
			ev.Type, ev.Victim, ev.StartStep, ev.PeakMbps, ev.DurSteps, ev.PrepDays)
	}
	sizes := w.Blocklists.Size()
	total := 0
	for _, n := range sizes {
		total += n
	}
	fmt.Printf("blocklists: %d listed /24s across 11 categories\n", total)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ispgen: "+format+"\n", args...)
	os.Exit(1)
}
