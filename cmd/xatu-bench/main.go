// Command xatu-bench regenerates the paper's tables and figures on the
// synthetic ISP world. Each experiment is identified by the paper artifact
// it reproduces (fig2..fig18f, tab1, tab2) or the extension it runs
// (ext-*); see DESIGN.md for the index. It is the one way to run them.
//
// Usage:
//
//	xatu-bench -exp fig8,fig10            # specific experiments
//	xatu-bench -exp all                   # everything (≈2 minutes on 2 vCPUs)
//	xatu-bench -exp data                  # only the cheap data-analysis ones
//	xatu-bench -days 20 -seed 7 -exp fig8 # bigger world
//
// The headline numbers (fig8/fig10 at the 40 % bound, seeds 1–3) are
// committed in BENCH_quality.json and recomputed by `make quality-check`.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"github.com/xatu-go/xatu"
	"github.com/xatu-go/xatu/internal/eval"
)

// env is what an experiment reads: the labeled world, its trained systems
// (nil unless the experiment's ml is set), the world's configuration and
// the scrubbing-overhead bound of single-operating-point experiments.
type env struct {
	p     *eval.Pipeline
	ml    *eval.MLContext
	cfg   eval.Config
	bound float64
}

// experiments lists every experiment id with the -exp group that selects
// it, in the order -exp all runs them. ml marks the ones that read trained
// systems; fig18a builds and trains its own pipelines from the
// configuration.
type experiment struct {
	id, group string
	ml        bool
	run       func(env) (*eval.Result, error)
}

var experiments = []experiment{
	{"tab1", "data", false, func(env) (*eval.Result, error) { return eval.Table1Features(), nil }},
	{"tab2", "data", false, world(eval.Table2DataSplit)},
	{"fig2", "data", false, world(eval.Fig2Example)},
	{"fig3", "data", false, world(eval.Fig3NaiveEarlyDetection)},
	{"fig4a", "data", false, world(eval.Fig4aAttackerOverlap)},
	{"fig4b", "data", false, world(eval.Fig4bTypeTransitions)},
	{"fig14", "data", false, world(eval.Fig14RampVisualization)},
	{"fig15", "data", false, world(eval.Fig15SourceReappearance)},
	{"fig16", "data", false, world(eval.Fig16ClusteringGrowth)},
	{"fig8", "ml", true, func(e env) (*eval.Result, error) {
		return eval.Fig8OverheadSweep(e.ml, []float64{0.05, 0.1, 0.2, 0.4, 0.8})
	}},
	{"fig9", "ml", true, func(e env) (*eval.Result, error) { return eval.Fig9ROC(e.ml), nil }},
	{"fig10", "ml", true, atBound(eval.Fig10PerAttackType)},
	{"fig11", "ml", true, func(e env) (*eval.Result, error) { return eval.Fig11Saliency(e.ml) }},
	{"fig12", "ablate", true, atBound(eval.Fig12AblationBreakdown)},
	{"fig13", "ablate", true, atBound(eval.Fig13Robustness)},
	{"fig17", "ablate", true, atBound(eval.Fig17BlocklistCategories)},
	{"fig18a", "ablate", false, func(e env) (*eval.Result, error) { return eval.Fig18CDetIndependence(e.cfg, e.bound) }},
	{"fig18b", "ablate", true, atBound(eval.Fig18LSTMContribution)},
	{"fig18c", "ablate", true, func(e env) (*eval.Result, error) {
		return eval.Fig18Timescales(e.ml, e.bound, [][3]int{{1, 2, 5}, {1, 5, 15}, {5, 15, 30}})
	}},
	{"fig18d", "ablate", true, atBound(eval.Fig18Survival)},
	{"fig18e", "ablate", true, func(e env) (*eval.Result, error) {
		return eval.Fig18HiddenUnits(e.ml, e.bound, []int{4, 8, 10, 16})
	}},
	{"fig18f", "ablate", true, func(e env) (*eval.Result, error) {
		return eval.Fig18TimeLength(e.ml, e.bound, []int{60, 120, 180})
	}},
	{"ext-autoreg", "ext", true, atBound(eval.ExtAutoRegressive)},
	{"ext-entropy", "ext", true, atBound(eval.ExtEntropyBaseline)},
	{"ext-cusum", "ext", true, atBound(eval.ExtCusumGroundTruth)},
}

// world adapts an experiment that reads only the labeled world.
func world(f func(*eval.Pipeline) *eval.Result) func(env) (*eval.Result, error) {
	return func(e env) (*eval.Result, error) { return f(e.p), nil }
}

// atBound adapts an experiment run on the trained systems at -bound.
func atBound(f func(*eval.MLContext, float64) (*eval.Result, error)) func(env) (*eval.Result, error) {
	return func(e env) (*eval.Result, error) { return f(e.ml, e.bound) }
}

func main() {
	var (
		expFlag   = flag.String("exp", "data", "comma-separated experiment ids, or 'all', "+groupNames())
		days      = flag.Int("days", 14, "simulated days")
		seed      = flag.Int64("seed", 1, "world seed")
		customers = flag.Int("customers", 10, "number of customers")
		stepMin   = flag.Int("step", 2, "simulation step in minutes")
		bound     = flag.Float64("bound", 0.4, "overhead bound for single-point experiments")
		epochs    = flag.Int("epochs", 14, "training epochs")
	)
	flag.Parse()

	cfg := xatu.BenchPipelineConfig(*days, *seed)
	cfg.World.NumCustomers = *customers
	cfg.World.Step = time.Duration(*stepMin) * time.Minute
	cfg.Train.Epochs = *epochs

	exps, err := selectExperiments(*expFlag)
	if err != nil {
		fatal("%v", err)
	}
	if len(exps) == 0 {
		fatal("no experiments selected")
	}

	fmt.Printf("building world: %d days, %d customers, step %v, seed %d\n",
		*days, *customers, cfg.World.Step, *seed)
	start := time.Now()
	p, err := eval.New(cfg)
	if err != nil {
		fatal("pipeline: %v", err)
	}
	fmt.Printf("world ready: %d alerts from %s in %v\n\n", len(p.Alerts), cfg.Labeler, time.Since(start).Round(time.Millisecond))

	e := env{p: p, cfg: cfg, bound: *bound}
	if slices.ContainsFunc(exps, func(x experiment) bool { return x.ml }) {
		fmt.Println("training Xatu and RF baselines...")
		t0 := time.Now()
		e.ml, err = eval.NewMLContext(p)
		if err != nil {
			fatal("training: %v", err)
		}
		fmt.Printf("systems trained in %v\n\n", time.Since(t0).Round(time.Millisecond))
	}

	for _, x := range exps {
		t0 := time.Now()
		res, err := x.run(e)
		if err != nil {
			fatal("%s: %v", x.id, err)
		}
		fmt.Print(res.Render())
		fmt.Printf("(%s took %v)\n\n", x.id, time.Since(t0).Round(time.Millisecond))
	}
}

// groupNames lists the -exp group names, quoted, in table order.
func groupNames() string {
	var names []string
	for _, x := range experiments {
		if q := "'" + x.group + "'"; !slices.Contains(names, q) {
			names = append(names, q)
		}
	}
	return strings.Join(names, ", ")
}

// selectExperiments turns the -exp list into experiments, group names
// expanded, and refuses an unknown id before any world is built.
func selectExperiments(s string) ([]experiment, error) {
	var out []experiment
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		known := false
		for _, x := range experiments {
			if tok == "all" || tok == x.group || tok == x.id {
				out = append(out, x)
				known = true
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown experiment %q (ids are listed in DESIGN.md §3)", tok)
		}
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xatu-bench: "+format+"\n", args...)
	os.Exit(1)
}
