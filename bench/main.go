// Command bench is the repo's packet-to-verdict benchmark: four workloads
// driven through the public entry points (ingest.Pipeline, engine.Engine,
// cluster.Node/Router/Coordinator, core.Model.Fit) from one generator
// goroutine, with correctness checks against a serial reference wired into
// the same command. See README.md for the metric dictionary.
//
//	go run -C bench . -workload wide_quiet -seed 1            # end-to-end metrics
//	go run -C bench . -workload wide_quiet -seed 1 -trace 1   # per-layer ledger
//	go run -C bench . -repeat 5 -workload isp_paced           # five runs, one file each
//	go run -C bench . -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

var workloadNames = []string{"wide_quiet", "narrow_flood", "isp_paced", "train_fit"}

type options struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	smoke    bool
	outDir   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run produced; it is written as JSON and its
// metrics are printed as "workload name value unit" lines.
type report struct {
	Workload   string            `json:"workload"`
	Seed       int64             `json:"seed"`
	Trace      bool              `json:"trace"`
	Seconds    float64           `json:"seconds"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Correct    bool              `json:"correct"`
	Attempted  int64             `json:"attempted"`
	Failed     int64             `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	Invalid    []string          `json:"invalid,omitempty"`
	Metrics    map[string]metric `json:"metrics"`
	Notes      map[string]any    `json:"notes,omitempty"`
	Ledger     *ledger           `json:"ledger,omitempty"`
}

func newReport(opt options) *report {
	return &report{
		Workload: opt.workload, Seed: opt.seed, Trace: opt.trace,
		Seconds: opt.duration.Seconds(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Metrics: map[string]metric{}, Notes: map[string]any{},
	}
}

// set records a metric; the name must be in the dictionary.
func (r *report) set(name string, v float64) {
	d, ok := defOf(name)
	if !ok {
		panic("bench: metric " + name + " is not in the dictionary")
	}
	r.Metrics[name] = metric{Value: v, Unit: d.Unit}
}

// setLag records the verdict-lag percentiles of an ascending sample: the
// median under both its names, the sample count, and the p99 only when the
// sample leaves ten values beyond it (≥1000 ticks) — a lower percentile is
// never reported under the p99's name.
func (r *report) setLag(sorted []float64) {
	r.set("result_lag_p50_ms", percentile(sorted, 50))
	r.set("wire_to_verdict_p50_ms", percentile(sorted, 50))
	r.set("wire_to_verdict_samples", float64(len(sorted)))
	if supportedTail(len(sorted), 99) == 99 {
		r.set("wire_to_verdict_p99_ms", percentile(sorted, 99))
	}
}

// check counts attempted operations and how many of them failed.
func (r *report) check(attempted, failed int64, what string) {
	r.Attempted += attempted
	if failed > 0 {
		r.Failed += failed
		r.Failures = append(r.Failures, fmt.Sprintf("%d of %d: %s", failed, attempted, what))
	}
}

// invalid marks the run as one whose numbers must not be used.
func (r *report) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

func (r *report) note(key string, v any) { r.Notes[key] = v }

// finish checks that an untraced run measured every end-to-end metric —
// one that is missing or not positive fails the run, since a 0 would pass
// every later comparison as "unresolved" — then fills in failed_share and
// the verdict.
func (r *report) finish() {
	if !r.Trace {
		for _, d := range endToEnd {
			if m, ok := r.Metrics[d.Name]; !ok || !(m.Value > 0) {
				r.check(1, 1, fmt.Sprintf("end-to-end metric %s was not measured (%v)", d.Name, m.Value))
			}
		}
	}
	r.Attempted = max(r.Attempted, 1)
	r.set("failed_share", float64(r.Failed)/float64(r.Attempted))
	r.Correct = r.Failed == 0 && len(r.Invalid) == 0
}

func (r *report) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d trace=%v seconds=%g gomaxprocs=%d\n", r.Workload, r.Seed, r.Trace, r.Seconds, r.GOMAXPROCS)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%s %s %.6g %s\n", r.Workload, n, m.Value, m.Unit)
	}
	if r.Ledger != nil {
		r.Ledger.print(r.Workload)
	}
	for _, f := range r.Failures {
		fmt.Printf("# FAILED %s\n", f)
	}
	for _, f := range r.Invalid {
		fmt.Printf("# INVALID %s\n", f)
	}
}

func (r *report) write(dir, suffix string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	kind := "e2e"
	if r.Trace {
		kind = "layers"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s%s.json", r.Workload, r.Seed, kind, suffix))
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine is the one-object summary the driver reads from the last
// line of standard output: every end-to-end metric of an untraced run,
// every per-layer metric of a traced one, with 0 for a per-layer metric the
// workload does not exercise.
func (r *report) contractLine() string {
	list := endToEnd
	if r.Trace {
		list = perLayer
	}
	metrics := make(map[string]metric, len(list))
	for _, d := range list {
		metrics[d.Name] = metric{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	data, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(data)
}

// runOne runs one workload once and returns its finished report.
func runOne(opt options) (*report, error) {
	rep := newReport(opt)
	var err error
	switch {
	case opt.workload == "isp_paced":
		err = runPaced(opt, rep)
	case opt.workload == "train_fit":
		err = runTrain(opt, rep)
	default:
		spec, ok := specs[opt.workload]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %v)", opt.workload, workloadNames)
		}
		if opt.smoke {
			spec = smokeSpec(spec)
		}
		if opt.trace {
			err = traceClosed(spec, opt, rep)
		} else {
			err = runClosed(spec, opt, rep)
		}
	}
	if err != nil {
		return nil, err
	}
	rep.finish()
	return rep, nil
}

// A run voided by a validity gate says the box disturbed the measurement,
// not that the program did anything wrong, and whoever reads it would run it
// again. The driver runs each command once, so the command does that itself:
// up to maxAttempts, and only while one more attempt as long as those so far
// still ends inside the time the driver allows one run (180 s).
const (
	maxAttempts = 3
	runBudget   = 150 * time.Second
)

// measure is run (runOne), repeated while a validity gate voids the run. A
// failed correctness check is never measured again: that is the program's
// fault.
func measure(opt options, run func(options) (*report, error)) (*report, error) {
	begin := time.Now()
	for attempt := 1; ; attempt++ {
		rep, err := run(opt)
		if err != nil {
			return nil, err
		}
		rep.note("voided_attempts", attempt-1)
		spent := time.Since(begin)
		if len(rep.Invalid) == 0 || attempt == maxAttempts || spent+spent/time.Duration(attempt) > runBudget {
			return rep, nil
		}
		fmt.Fprintf(os.Stderr, "bench: %s: attempt %d voided, measuring again: %v\n", opt.workload, attempt, rep.Invalid)
	}
}

func defaultOutDir() string {
	if st, err := os.Stat("bench"); err == nil && st.IsDir() {
		return filepath.Join("bench", "out")
	}
	return "out"
}

func main() {
	var (
		opt     options
		seconds = flag.Float64("seconds", 15, "length of the timed run")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics and the ledger")
		repeat  = flag.Int("repeat", 1, "run the workload N times, writing one JSON per run")
		compare = flag.Bool("compare", false, "compare two sets of result files: -compare base.json[,more] new.json[,more]")
	)
	flag.StringVar(&opt.workload, "workload", "", "one of wide_quiet, narrow_flood, isp_paced, train_fit; empty = all four")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed: develop on 1, verify on 2")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny sizes: exercises every path in seconds, numbers are meaningless")
	flag.StringVar(&opt.outDir, "out", defaultOutDir(), "directory for result and trace files")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two arguments, each a comma-separated list of result files or globs")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	// Load is sized for a shared 2–4 core box.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	opt.duration = time.Duration(*seconds * float64(time.Second))
	opt.trace = *trace != 0
	if opt.smoke && opt.duration > time.Second {
		opt.duration = time.Second
	}
	workloads := workloadNames
	if opt.workload != "" {
		workloads = []string{opt.workload}
	}
	ok := true
	var last *report
	for _, w := range workloads {
		for i := 0; i < *repeat; i++ {
			o := opt
			o.workload = w
			rep, err := measure(o, runOne)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
				os.Exit(1)
			}
			suffix := ""
			if *repeat > 1 {
				suffix = fmt.Sprintf("-run%d", i+1)
			}
			rep.print()
			path, err := rep.write(opt.outDir, suffix)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: writing result: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("# wrote %s\n", path)
			ok = ok && rep.Correct
			last = rep
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: a correctness check or validity gate failed; the numbers above are not to be used")
		os.Exit(1)
	}
	// The driver reads the last line; with one workload and one run it is
	// that run's summary.
	fmt.Println(last.contractLine())
}
