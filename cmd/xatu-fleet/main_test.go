package main

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/xatu-go/xatu"
)

// episodes builds one matched episode per onset step, each on its own
// customer, streaming 100 steps from its onset.
func episodes(onsets ...int) []xatu.Episode {
	eps := make([]xatu.Episode, len(onsets))
	for i, s := range onsets {
		eps[i] = xatu.Episode{CustomerIdx: i, AnomStart: s, StreamEnd: s + 100}
	}
	return eps
}

// detected is a run whose episode i was first detected at steps[i]
// (-1 = never), with settle windows opened at the given steps.
func detected(windows []int, steps ...int) *runResult {
	r := &runResult{detect: map[int]int{}, windows: windows}
	for i, s := range steps {
		r.detect[i] = s
	}
	return r
}

func hasViolation(par parity, substr string) bool {
	for _, v := range par.violations {
		if strings.Contains(v, substr) {
			return true
		}
	}
	return false
}

func TestCompare(t *testing.T) {
	const settle, drift = 30, 5
	for _, tc := range []struct {
		name               string
		eps                []xatu.Episode
		base, run          *runResult
		compared, excluded int
		maxDrift           int
		violation          string // "" = none
	}{
		{
			// Onset, baseline detection and run detection each put an
			// episode in the window opened at step 250; the drift of the
			// last would otherwise fail the envelope.
			name:     "episodes in a settle window are excluded",
			eps:      episodes(260, 200, 100, 400),
			base:     detected(nil, 262, 255, 110, 405),
			run:      detected([]int{250}, 262, 230, 253, 405),
			compared: 1, excluded: 3,
		},
		{
			name:     "an episode the run never detected is a violation",
			eps:      episodes(100, 300),
			base:     detected(nil, 105, 305),
			run:      detected(nil, -1, 305),
			compared: 2, violation: "episode 0 (customer 0 ",
		},
		{
			name:     "drift above the envelope is a violation",
			eps:      episodes(100, 300),
			base:     detected(nil, 105, 305),
			run:      detected(nil, 111, 300),
			compared: 2, maxDrift: 6, violation: "drift 6 steps exceeds 5",
		},
		{
			name:     "drift at the envelope holds",
			eps:      episodes(100, 300),
			base:     detected(nil, 105, 305),
			run:      detected(nil, 110, 300),
			compared: 2, maxDrift: 5,
		},
		{
			name:     "an episode the baseline never detected is skipped",
			eps:      episodes(100, 300),
			base:     detected(nil, -1, 305),
			run:      detected(nil, 150, 305),
			compared: 1,
		},
		{
			name:      "zero compared is a violation",
			eps:       episodes(100, 300),
			base:      detected(nil, -1, -1),
			run:       detected(nil, -1, 305),
			violation: "no episode compared",
		},
		{
			name:      "zero compared because every episode is in a window is a violation",
			eps:       episodes(100),
			base:      detected(nil, 105),
			run:       detected([]int{90}, 105),
			excluded:  1,
			violation: "no episode compared",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			par := compare(tc.eps, tc.base, tc.run, settle, drift)
			if par.compared != tc.compared || par.excluded != tc.excluded || par.maxAbsDrift != tc.maxDrift {
				t.Fatalf("compared %d excluded %d max drift %d, want %d %d %d",
					par.compared, par.excluded, par.maxAbsDrift, tc.compared, tc.excluded, tc.maxDrift)
			}
			if len(par.delays) != len(tc.eps) {
				t.Fatalf("%d delays for %d episodes", len(par.delays), len(tc.eps))
			}
			if tc.violation == "" && len(par.violations) > 0 {
				t.Fatalf("unexpected violations %q", par.violations)
			}
			if tc.violation != "" && !hasViolation(par, tc.violation) {
				t.Fatalf("violations %q, want one containing %q", par.violations, tc.violation)
			}
		})
	}
}

// TestChecks pins the serving checks a run must pass whatever its
// detections.
func TestChecks(t *testing.T) {
	healthy := nodeResult{id: "node-1", health: "healthy", dumps: []xatu.FlightDump{{Trigger: "panic"}, {Trigger: "health:degraded"}}}
	ok := &runResult{name: "Soak", sched: smokeSchedule(), peak: 1, panics: 1, restarts: 1, nodes: []nodeResult{healthy}}
	if v := ok.checks(); len(v) != 0 {
		t.Fatalf("clean soak run: %q", v)
	}
	bare := healthy
	bare.dumps = nil
	bare.health = "degraded"
	bare.engine.DeadShards = 1
	bad := &runResult{name: "Nodes2", sched: smokeSchedule(), peak: 2, panics: 1, nodes: []nodeResult{bare}}
	want := []string{
		"Nodes2: no channels were live-migrated",
		"Nodes2: restarts 0 != injected panics 1",
		"Nodes2: node node-1 finished with 1 dead shards",
		`Nodes2: node node-1 final health "degraded", want healthy`,
		"Nodes2: flight recorder has no panic-triggered dump",
		"Nodes2: flight recorder has no health-transition dump",
	}
	if got := bad.checks(); !reflect.DeepEqual(got, want) {
		t.Fatalf("checks = %q, want %q", got, want)
	}
}

// TestReportRecordsSchedule: the report carries the schedule that ran,
// whatever the fault counters say. With one shard, the full schedule's
// panic-all injects exactly one panic, as the smoke schedule's panic-0
// does.
func TestReportRecordsSchedule(t *testing.T) {
	f := &fleet{cfg: xatu.BenchPipelineConfig(2, 7), shards: 1, stab: 1152}
	clean := &runResult{wall: time.Second, nodes: []nodeResult{{id: "node-1"}}}
	for _, sched := range [][]event{fullSchedule(), smokeSchedule()} {
		chaos := &runResult{wall: time.Second, panics: 1, nodes: []nodeResult{{id: "node-1"}}}
		rep := f.report(sched, clean, chaos, parity{})
		if !reflect.DeepEqual(rep.Config.Schedule, sched) {
			t.Fatalf("report schedule %+v, want %+v", rep.Config.Schedule, sched)
		}
		data, err := json.Marshal(rep.Config.Schedule)
		if err != nil {
			t.Fatal(err)
		}
		var back []event
		if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(back, sched) {
			t.Fatalf("schedule does not round-trip through JSON: %s (%v)", data, err)
		}
	}
}
