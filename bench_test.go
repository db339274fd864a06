package xatu

// Benchmark harness: one Benchmark per paper table/figure (see DESIGN.md's
// experiment index) plus micro-benchmarks for the hot substrates. The
// experiment benchmarks share a lazily built pipeline and trained systems;
// the first benchmark that needs them pays the setup cost outside its
// timed region.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// The ablation benchmarks (Fig 12/13/17/18*) retrain model variants and
// take tens of seconds per iteration by design.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/netflow"
)

var (
	benchOnce sync.Once
	benchP    *Pipeline
	benchML   *MLContext
	benchCfg  PipelineConfig
	benchErr  error
)

// benchSetup builds the shared world and trains the systems once.
func benchSetup(b *testing.B, needML bool) (*Pipeline, *MLContext) {
	b.Helper()
	benchOnce.Do(func() {
		benchCfg = BenchPipelineConfig(12, 1)
		benchCfg.Train.Epochs = 12
		benchP, benchErr = NewPipeline(benchCfg)
		if benchErr != nil {
			return
		}
		benchML, benchErr = NewMLContext(benchP)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	if needML && benchML == nil {
		b.Fatal("ML context unavailable")
	}
	return benchP, benchML
}

// runExperimentBench is the common body of the per-figure benchmarks.
func runExperimentBench(b *testing.B, id string, bound float64) {
	p, ml := benchSetup(b, NeedsML(id))
	b.ResetTimer()
	var res *ExperimentResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = RunExperiment(id, p, ml, benchCfg, bound)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Rows)), "rows")
}

func BenchmarkTable1FeatureExtraction(b *testing.B) { runExperimentBench(b, "tab1", 0.4) }
func BenchmarkTable2DataSplit(b *testing.B)         { runExperimentBench(b, "tab2", 0.4) }
func BenchmarkFig2ExampleAttack(b *testing.B)       { runExperimentBench(b, "fig2", 0.4) }
func BenchmarkFig3NaiveEarlyDetection(b *testing.B) { runExperimentBench(b, "fig3", 0.4) }
func BenchmarkFig4aAttackerOverlap(b *testing.B)    { runExperimentBench(b, "fig4a", 0.4) }
func BenchmarkFig4bTypeTransitions(b *testing.B)    { runExperimentBench(b, "fig4b", 0.4) }
func BenchmarkFig15SourceReappearance(b *testing.B) { runExperimentBench(b, "fig15", 0.4) }
func BenchmarkFig16ClusteringCoefficient(b *testing.B) {
	runExperimentBench(b, "fig16", 0.4)
}

func BenchmarkFig8OverheadSweep(b *testing.B)  { runExperimentBench(b, "fig8", 0.4) }
func BenchmarkFig9ROC(b *testing.B)            { runExperimentBench(b, "fig9", 0.4) }
func BenchmarkFig10PerAttackType(b *testing.B) { runExperimentBench(b, "fig10", 0.4) }
func BenchmarkFig11Saliency(b *testing.B)      { runExperimentBench(b, "fig11", 0.4) }

func BenchmarkFig12AblationBreakdown(b *testing.B) { runExperimentBench(b, "fig12", 0.4) }
func BenchmarkFig13Robustness(b *testing.B)        { runExperimentBench(b, "fig13", 0.4) }
func BenchmarkFig17BlocklistCategories(b *testing.B) {
	runExperimentBench(b, "fig17", 0.4)
}
func BenchmarkFig18aCDetIndependence(b *testing.B) {
	// fig18a builds two fresh pipelines per iteration; shrink the world.
	cfg := BenchPipelineConfig(10, 1)
	cfg.Train.Epochs = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunExperiment("fig18a", nil, nil, cfg, 0.4); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkFig18bLSTMContribution(b *testing.B) { runExperimentBench(b, "fig18b", 0.4) }
func BenchmarkFig18cTimescales(b *testing.B)       { runExperimentBench(b, "fig18c", 0.4) }
func BenchmarkFig18dSurvivalContribution(b *testing.B) {
	runExperimentBench(b, "fig18d", 0.4)
}
func BenchmarkFig18eHiddenUnits(b *testing.B) { runExperimentBench(b, "fig18e", 0.4) }
func BenchmarkFig18fTimeLength(b *testing.B)  { runExperimentBench(b, "fig18f", 0.4) }

// --- micro-benchmarks for the hot substrates ---

func BenchmarkStreamPush(b *testing.B) {
	cfg := DefaultModelConfig()
	cfg.Hidden = 16
	m, err := NewModel(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := NewStream(m)
	x := make([]float64, NumFeatures)
	for i := 0; i < 8; i++ {
		x[i*13] = 1.5
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Push(x)
	}
	// Deployment claim in the paper: each detection runs within 10 ms.
}

func BenchmarkFeatureExtraction(b *testing.B) {
	p, _ := benchSetup(b, false)
	ex := p.Extractor(nil, nil)
	w := p.World
	at := benchCfg.World.TimeOf(1000)
	flows := w.FlowsAt(0, 1000)
	customer := w.Customers[0].Addr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Extract(customer, at, flows)
	}
	b.ReportMetric(float64(len(flows)), "flows/op")
}

func BenchmarkWorldFlowsAt(b *testing.B) {
	p, _ := benchSetup(b, false)
	w := p.World
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.FlowsAt(i%len(w.Customers), i%benchCfg.World.Steps())
	}
}

func BenchmarkNetFlowEncodeDecode(b *testing.B) {
	p, _ := benchSetup(b, false)
	flows := p.World.FlowsAt(0, 500)
	if len(flows) == 0 {
		b.Skip("no flows at probe step")
	}
	if len(flows) > netflow.MaxRecordsPerPacket {
		flows = flows[:netflow.MaxRecordsPerPacket]
	}
	boot := flows[0].Start.Add(-time.Hour)
	now := flows[0].End.Add(time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt, err := netflow.EncodeV5(flows, boot, now, uint32(i), 1000)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := netflow.DecodeV5(pkt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(flows)), "records/op")
}

func BenchmarkMonitorObserveStep(b *testing.B) {
	_, ml := benchSetup(b, true)
	p := benchP
	mon, err := NewMonitor(MonitorConfig{
		Models:    ml.Models.ByType,
		Default:   ml.Models.Shared,
		Extractor: p.Extractor(nil, nil),
		Threshold: 1e-9, // never alert; measures the steady-state cost
	})
	if err != nil {
		b.Fatal(err)
	}
	w := p.World
	customer := w.Customers[0].Addr
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := i % benchCfg.World.Steps()
		mon.ObserveStep(customer, benchCfg.World.TimeOf(step), w.FlowsAt(0, step))
	}
}

// BenchmarkReport prints the headline comparison once so bench logs carry
// the reproduction numbers alongside the timings.
func BenchmarkReportHeadline(b *testing.B) {
	p, ml := benchSetup(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunExperiment("fig8", p, ml, benchCfg, 0.4)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			fmt.Println(res.Render())
		}
	}
}

func BenchmarkExtAutoRegressive(b *testing.B) { runExperimentBench(b, "ext-autoreg", 0.4) }

func BenchmarkExtEntropyBaseline(b *testing.B) { runExperimentBench(b, "ext-entropy", 0.4) }

func BenchmarkFig14RampVisualization(b *testing.B) { runExperimentBench(b, "fig14", 0.4) }

func BenchmarkExtCusumGroundTruth(b *testing.B) { runExperimentBench(b, "ext-cusum", 0.4) }
