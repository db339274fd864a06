package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func smokeOptions(workload string, trace bool, dir string) options {
	return options{workload: workload, seed: 1, duration: 300 * time.Millisecond,
		trace: trace, smoke: true, outDir: dir}
}

// The same seed must give the same inputs, and a different seed different
// ones: the packet stream is hashed as encoded.
func TestStreamIsSeeded(t *testing.T) {
	spec := smokeSpec(specs["narrow_flood"])
	build := func(seed int64) uint64 {
		s, err := buildStream(spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		defer s.release()
		return s.hash
	}
	a, b, c := build(1), build(1), build(2)
	if a != b {
		t.Errorf("seed 1 hashed to %016x then %016x", a, b)
	}
	if a == c {
		t.Errorf("seeds 1 and 2 both hashed to %016x", a)
	}
}

func TestSupportedTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {40, 75}, {20, 50}, {19, 0}, {0, 0}} {
		if got := supportedTail(tc.n, 99); got != tc.want {
			t.Errorf("supportedTail(%d, 99) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := supportedTail(5000, 95); got != 95 {
		t.Errorf("the cap is not honoured: got p%v", got)
	}
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got := percentile(v, 99); got != 990 {
		t.Errorf("nearest-rank p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
}

// quart must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver gates spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q := quart(v)
	if q.q1 != 2.75 || q.med != 5.5 || q.q3 != 8.25 {
		t.Errorf("quart(1..10) = %v %v %v, want 2.75 5.5 8.25", q.q1, q.med, q.q3)
	}
	q = quart([]float64{3, 1, 2, 5, 4})
	if q.q1 != 1.5 || q.med != 3 || q.q3 != 4.5 {
		t.Errorf("quart(1..5) = %v %v %v, want 1.5 3 4.5", q.q1, q.med, q.q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	tight := func(m float64) quartiles { return quartiles{q1: m * 0.99, med: m, q3: m * 1.01, n: 5} }
	wide := quartiles{q1: 80, med: 100, q3: 120, n: 5}
	for _, tc := range []struct {
		d         metricDef
		base, cur quartiles
		want      string
	}{
		{lower, tight(100), tight(105), "within-bound"},
		{lower, tight(100), tight(115), "regressed"},
		{lower, tight(100), tight(85), "improved"},
		{higher, tight(100), tight(85), "regressed"},
		{higher, tight(100), tight(115), "improved"},
		{lower, wide, tight(150), "unresolved"},
	} {
		if got := verdict(tc.d, tc.base, tc.cur); got != tc.want {
			t.Errorf("%s better, %v → %v: %s, want %s", tc.d.Better, tc.base.med, tc.cur.med, got, tc.want)
		}
	}
}

// The reference check must reject a verdict stream that is not the one the
// inputs produce: a detector that lost one datagram, and a checkpoint with
// one flipped byte.
func TestReferenceRejectsCorruptedVerdicts(t *testing.T) {
	spec := smokeSpec(specs["wide_quiet"])
	st, err := buildStream(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer st.release()
	model, err := newModel(spec.hidden, 1)
	if err != nil {
		t.Fatal(err)
	}
	mc := servingMonitor(model, st.extractor, neverFires)
	state := func(skip int) []byte {
		r, err := newReplayer(mc, stepDur, closedLateness, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for g := 0; g < 6; g++ {
			st.feedTick(g, func(src string, pkt []byte) {
				if n++; n != skip {
					r.handlePacket(src, pkt)
				}
			})
		}
		r.flush()
		var buf bytes.Buffer
		if err := r.mon.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := state(0)
	if compared, differing, err := stateMismatches(state(0), want); err != nil || compared == 0 || differing != 0 {
		t.Fatalf("identical replays: compared %d, differing %d, err %v", compared, differing, err)
	}
	if _, differing, err := stateMismatches(state(3), want); err != nil || differing == 0 {
		t.Errorf("a replay that lost a datagram was accepted (differing %d, err %v)", differing, err)
	}
	// Flip one byte of the first channel's recurrent state (well before the
	// trailing last-input vector the comparison leaves out).
	flipped := append([]byte(nil), want...)
	flipped[200] ^= 0x01
	if _, differing, err := stateMismatches(flipped, want); err == nil && differing == 0 {
		t.Error("a checkpoint with a flipped byte was accepted")
	}
	if _, err := checkpointChannels([]byte("not a checkpoint")); err == nil {
		t.Error("garbage parsed as a checkpoint")
	}
}

// The smoke pass drives every workload, untraced and traced, through the
// real entry points at tiny sizes, checks included.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			rep, err := runOne(smokeOptions(w, trace, dir))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if rep.Failed != 0 {
				t.Errorf("%s trace=%v: failures %v", w, trace, rep.Failures)
			}
			list := endToEnd
			if trace {
				list = perLayer
			}
			// The line the driver reads carries exactly the listed metrics.
			var line struct{ Metrics map[string]metric }
			if err := json.Unmarshal([]byte(rep.contractLine()), &line); err != nil {
				t.Fatal(err)
			}
			if len(line.Metrics) != len(list) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(line.Metrics), len(list))
			}
			for _, d := range list {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v)", w, trace, d.Name, m, ok)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, m.Value)
				}
			}
		}
	}
}

// A run that did not measure one of its end-to-end metrics is a failed
// run, not a run that reports 0.
func TestMissingEndToEndMetricFailsTheRun(t *testing.T) {
	rep := newReport(options{workload: "wide_quiet"})
	for _, d := range endToEnd[1:] {
		rep.set(d.Name, 1)
	}
	rep.check(10, 0, "nothing else wrong")
	rep.finish()
	if rep.Correct || rep.Failed != 1 {
		t.Errorf("missing %s: correct %v, failed %d", endToEnd[0].Name, rep.Correct, rep.Failed)
	}
	rep.set(endToEnd[0].Name, 0)
	rep.Failed, rep.Failures = 0, nil
	rep.finish()
	if rep.Correct {
		t.Errorf("%s = 0 was accepted", endToEnd[0].Name)
	}
}

// A run voided by a validity gate is measured again, up to maxAttempts; a
// run that failed a correctness check is not.
func TestMeasureRepeatsVoidedRunsOnly(t *testing.T) {
	for _, tc := range []struct {
		name          string
		voided        int // leading attempts a gate voids
		failed        bool
		calls         int
		correct       bool
		voidedInNotes int
	}{
		{"undisturbed", 0, false, 1, true, 0},
		{"disturbed twice", 2, false, 3, true, 2},
		{"always disturbed", maxAttempts, false, maxAttempts, false, maxAttempts - 1},
		{"failed a check", 0, true, 1, false, 0},
	} {
		calls := 0
		rep, err := measure(options{workload: "wide_quiet"}, func(o options) (*report, error) {
			calls++
			r := newReport(o)
			for _, d := range endToEnd {
				r.set(d.Name, 1)
			}
			if calls <= tc.voided {
				r.invalid("the box stalled")
			}
			r.check(1, btoi(tc.failed), "a check")
			r.finish()
			return r, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if calls != tc.calls || rep.Correct != tc.correct || rep.Notes["voided_attempts"] != tc.voidedInNotes {
			t.Errorf("%s: %d calls, correct %v, voided_attempts %v; want %d, %v, %d",
				tc.name, calls, rep.Correct, rep.Notes["voided_attempts"], tc.calls, tc.correct, tc.voidedInNotes)
		}
	}
}

// BENCHMARK.json declares what the dictionary in metrics.go defines.
func TestBenchmarkJSONMatchesDictionary(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	same := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d in the dictionary", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s[%d]: declared %+v, dictionary %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
