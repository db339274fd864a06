package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// -compare base new: each argument is a comma-separated list of result
// files or globs (the files -repeat writes). Per workload × metric it
// prints both sides' median, quartiles and sample count, the ratio with
// its base, and one verdict:
//
//	within-bound  the new median is no worse than the base by more than the metric's bound
//	regressed     it is worse by more than the bound
//	improved      it is better by more than the bound
//	unresolved    either side's inter-quartile spread is wider than the bound
//
// Ungated (per-layer) metrics are listed without a verdict.

type quartiles struct {
	q1, med, q3 float64
	n           int
}

// quart gives the quartiles Python's statistics.quantiles(v, n=4) gives
// (the exclusive method), which is what the driver computes.
func quart(v []float64) quartiles {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	q := quartiles{n: n}
	if n == 0 {
		return q
	}
	if n == 1 {
		q.q1, q.med, q.q3 = s[0], s[0], s[0]
		return q
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		j = min(max(j, 1), n-1)
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	q.q1, q.med, q.q3 = at(1), at(2), at(3)
	return q
}

// spread is the inter-quartile distance as a share of the median.
func (q quartiles) spread() float64 {
	if q.med == 0 {
		return 0
	}
	return (q.q3 - q.q1) / math.Abs(q.med)
}

// loadSet reads every report a comma-separated list of files or globs
// names, grouped by workload then metric. Invalid or incorrect runs are
// refused: their numbers are not to be used.
func loadSet(arg string) (map[string]map[string][]float64, error) {
	out := map[string]map[string][]float64{}
	for _, pat := range strings.Split(arg, ",") {
		paths, err := filepath.Glob(pat)
		if err != nil {
			return nil, err
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("%s: no such result file", pat)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				return nil, err
			}
			var r report
			if err := json.Unmarshal(data, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			if !r.Correct {
				return nil, fmt.Errorf("%s: run failed its checks (%v %v); refusing to compare it", p, r.Failures, r.Invalid)
			}
			w := out[r.Workload]
			if w == nil {
				w = map[string][]float64{}
				out[r.Workload] = w
			}
			for name, m := range r.Metrics {
				w[name] = append(w[name], m.Value)
			}
		}
	}
	return out, nil
}

// verdict judges one gated metric.
func verdict(d metricDef, base, cur quartiles) string {
	if base.spread() > d.Bound || cur.spread() > d.Bound {
		return "unresolved"
	}
	if base.med == 0 {
		return "unresolved"
	}
	change := (cur.med - base.med) / math.Abs(base.med) // positive = larger
	if d.Better == "higher" {
		change = -change // positive = worse
	}
	switch {
	case change > d.Bound:
		return "regressed"
	case change < -d.Bound:
		return "improved"
	}
	return "within-bound"
}

// compareFiles prints the comparison and reports whether any gated metric
// regressed.
func compareFiles(w io.Writer, baseArg, curArg string) (bool, error) {
	base, err := loadSet(baseArg)
	if err != nil {
		return false, err
	}
	cur, err := loadSet(curArg)
	if err != nil {
		return false, err
	}
	regressed := false
	for _, wl := range workloadNames {
		b, c := base[wl], cur[wl]
		if b == nil || c == nil {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl)
		fmt.Fprintf(w, "  %-32s %-6s %34s %34s %22s  %s\n", "metric", "unit",
			"base median [q1, q3] (n)", "new median [q1, q3] (n)", "new/base (base)", "verdict")
		for _, list := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range list {
				bs, cs := b[d.Name], c[d.Name]
				if bs == nil || cs == nil {
					continue
				}
				bq, cq := quart(bs), quart(cs)
				v := "ungated"
				if d.Bound > 0 {
					v = fmt.Sprintf("%s (bound %.0f %%, %s is better)", verdict(d, bq, cq), 100*d.Bound, d.Better)
					regressed = regressed || strings.HasPrefix(v, "regressed")
				}
				ratio := "n/a (base 0)"
				if bq.med != 0 {
					ratio = fmt.Sprintf("%.4f (%.5g)", cq.med/bq.med, bq.med)
				}
				fmt.Fprintf(w, "  %-32s %-6s %34s %34s %22s  %s\n", d.Name, d.Unit, fmtQ(bq), fmtQ(cq), ratio, v)
			}
		}
	}
	return regressed, nil
}

func fmtQ(q quartiles) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", q.med, q.q1, q.q3, q.n)
}
