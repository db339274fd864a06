//go:build quality

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"github.com/xatu-go/xatu"
	"github.com/xatu-go/xatu/internal/ddos"
	"github.com/xatu-go/xatu/internal/eval"
)

var update = flag.Bool("update", false, "rewrite BENCH_quality.json")

// The committed reproduction baseline: fig8's headline columns at the
// 40 % bound on xatu-bench's default 14-day world, for seeds 1–3, over all
// attack types and per type (fig10's rows). `make quality` rewrites it;
// `make quality-check` recomputes and compares.
const (
	qualityPath  = "../../BENCH_quality.json"
	qualityBound = 0.4
	qualityDays  = 14
)

var qualitySeeds = []int64{1, 2, 3}

type qualityConfig struct {
	Seeds       []int64 `json:"seeds"`
	Days        int     `json:"days"`
	Customers   int     `json:"customers"`
	StepMinutes float64 `json:"step_minutes"`
	Bound       float64 `json:"bound"`
	Epochs      int     `json:"epochs"`
	Hidden      int     `json:"hidden"`
	Window      int     `json:"window"`
	Pools       [3]int  `json:"pools"`
	Lookback    int     `json:"lookback_steps"`
	Labeler     string  `json:"labeler"`
}

// qualityNumbers are one system's headline numbers (eval.Headline),
// rounded as the xatu-bench tables print them (percent and minutes, one
// decimal). OvP75 is kept on the all-types rows only: benign windows are
// scored as udp-flood, so a per-type overhead would charge every false
// positive to that one type.
type qualityNumbers struct {
	EffP50   float64  `json:"eff_p50_pct"`
	DelayP10 float64  `json:"delay_p10_min"`
	DelayP50 float64  `json:"delay_p50_min"`
	OvP75    *float64 `json:"ov_p75_pct,omitempty"`
}

func (q qualityNumbers) values() []float64 {
	v := []float64{q.EffP50, q.DelayP10, q.DelayP50}
	if q.OvP75 != nil {
		v = append(v, *q.OvP75)
	}
	return v
}

var qualityMetrics = [4]string{"eff_p50_pct", "delay_p10_min", "delay_p50_min", "ov_p75_pct"}

type qualityRow struct {
	Seed    int64                     `json:"seed"`
	Type    string                    `json:"type"` // "all" or an attack type
	N       int                       `json:"n"`    // test-split attacks
	Systems map[string]qualityNumbers `json:"systems"`
}

type qualityDoc struct {
	Config qualityConfig `json:"config"`
	// Tolerance is, per system and metric, the max−min spread of the
	// all-types row across the seeds; the per-type rows are held to it
	// too.
	Tolerance map[string]qualityNumbers `json:"tolerance"`
	Rows      []qualityRow              `json:"rows"`
}

// round1 rounds to one decimal the way the tables' %.1f does.
func round1(v float64) float64 {
	r, _ := strconv.ParseFloat(strconv.FormatFloat(v, 'f', 1, 64), 64)
	return r + 0 // no -0 in the file
}

// numbers rounds one system's headline; withOverhead keeps its p75
// overhead.
func numbers(h eval.Headline, withOverhead bool) qualityNumbers {
	q := qualityNumbers{
		EffP50:   round1(100 * h.Eff.P50),
		DelayP10: round1(h.Delay.P10),
		DelayP50: round1(h.Delay.P50),
	}
	if withOverhead {
		ov := round1(100 * h.Overhead.P75)
		q.OvP75 = &ov
	}
	return q
}

// qualityRows builds one seed's world, trains its systems and returns its
// all-types row and one row per attack type in the test split.
func qualityRows(t *testing.T, seed int64) ([]qualityRow, qualityConfig) {
	cfg := xatu.BenchPipelineConfig(qualityDays, seed)
	p, err := eval.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := eval.NewMLContext(p)
	if err != nil {
		t.Fatal(err)
	}
	x, err := c.XatuAt(qualityBound)
	if err != nil {
		t.Fatal(err)
	}
	rf, err := c.RFAt(qualityBound)
	if err != nil {
		t.Fatal(err)
	}
	systems := []eval.SystemOutcomes{x, c.CDet("netscout"), c.CDet("fastnetmon"), rf}

	rows := []qualityRow{{Seed: seed, Type: "all", N: len(x.Attacks), Systems: map[string]qualityNumbers{}}}
	for _, s := range systems {
		rows[0].Systems[s.Name] = numbers(c.Headline(s), true)
	}
	for at := ddos.AttackType(0); at < ddos.NumAttackTypes; at++ {
		n := len(x.OfType(at).Attacks)
		if n == 0 {
			continue
		}
		row := qualityRow{Seed: seed, Type: at.String(), N: n, Systems: map[string]qualityNumbers{}}
		for _, s := range systems {
			row.Systems[s.Name] = numbers(c.Headline(s.OfType(at)), false)
		}
		rows = append(rows, row)
	}
	m := cfg.Model
	return rows, qualityConfig{
		Seeds: qualitySeeds, Days: qualityDays, Customers: cfg.World.NumCustomers,
		StepMinutes: cfg.World.Step.Minutes(), Bound: qualityBound, Epochs: cfg.Train.Epochs,
		Hidden: m.Hidden, Window: m.Window, Pools: [3]int{m.PoolShort, m.PoolMed, m.PoolLong},
		Lookback: cfg.LookbackSteps, Labeler: cfg.Labeler,
	}
}

// tolerances is the max−min spread of each (system, metric) over the
// seeds' all-types rows.
func tolerances(rows []qualityRow) map[string]qualityNumbers {
	bySystem := map[string][][]float64{}
	for _, r := range rows {
		if r.Type == "all" {
			for name, q := range r.Systems {
				bySystem[name] = append(bySystem[name], q.values())
			}
		}
	}
	out := map[string]qualityNumbers{}
	for name, vs := range bySystem {
		t := make([]float64, len(vs[0]))
		for i := range t {
			lo, hi := vs[0][i], vs[0][i]
			for _, v := range vs[1:] {
				lo, hi = min(lo, v[i]), max(hi, v[i])
			}
			t[i] = round1(hi - lo)
		}
		out[name] = qualityNumbers{t[0], t[1], t[2], &t[3]}
	}
	return out
}

// TestQualityBaseline recomputes BENCH_quality.json and fails when a
// number leaves its tolerance, the configuration changed, or the set of
// (seed, type) rows or their attack counts changed. With -update it
// rewrites the file instead.
func TestQualityBaseline(t *testing.T) {
	var got qualityDoc
	for _, seed := range qualitySeeds {
		rows, cfg := qualityRows(t, seed)
		got.Config = cfg
		got.Rows = append(got.Rows, rows...)
	}
	got.Tolerance = tolerances(got.Rows)
	body, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	body = append(body, '\n')
	if *update {
		if err := os.WriteFile(qualityPath, body, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("quality: wrote %s (%d rows)", qualityPath, len(got.Rows))
		return
	}

	raw, err := os.ReadFile(qualityPath)
	if err != nil {
		t.Fatalf("%v (run make quality to create it)", err)
	}
	var want qualityDoc
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, body) {
		t.Logf("quality: exact (%d rows)", len(got.Rows))
		return
	}
	cg, _ := json.Marshal(got.Config)
	cw, _ := json.Marshal(want.Config)
	if !bytes.Equal(cg, cw) {
		t.Fatalf("configuration changed: got %s, file has %s (run make quality if intended)", cg, cw)
	}
	type key struct {
		seed int64
		typ  string
	}
	wantRows := map[key]qualityRow{}
	for _, r := range want.Rows {
		wantRows[key{r.Seed, r.Type}] = r
	}
	if len(want.Rows) != len(got.Rows) {
		t.Errorf("rows: got %d, file has %d", len(got.Rows), len(want.Rows))
	}
	moved := 0
	for _, g := range got.Rows {
		w, ok := wantRows[key{g.Seed, g.Type}]
		if !ok || w.N != g.N {
			t.Errorf("seed %d %s: n=%d, file has %v", g.Seed, g.Type, g.N, w.N)
			continue
		}
		for name, gq := range g.Systems {
			wv, tol := w.Systems[name].values(), want.Tolerance[name].values()
			if len(wv) != len(gq.values()) {
				t.Errorf("seed %d %s %s: %d numbers, file has %d", g.Seed, g.Type, name, len(gq.values()), len(wv))
				continue
			}
			for i, v := range gq.values() {
				if v == wv[i] {
					continue
				}
				moved++
				msg := fmt.Sprintf("seed %d %s %s %s: %.1f, file has %.1f (tolerance %.1f)",
					g.Seed, g.Type, name, qualityMetrics[i], v, wv[i], tol[i])
				if math.Abs(v-wv[i]) > tol[i]+1e-9 {
					t.Error(msg)
				} else {
					t.Log(msg)
				}
			}
		}
	}
	if !t.Failed() {
		t.Logf("quality: within tolerance (%d numbers moved)", moved)
	}
}
