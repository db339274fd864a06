package engine

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"github.com/xatu-go/xatu/internal/netflow"
	"github.com/xatu-go/xatu/internal/telemetry"
)

// benchMonitorConfig never alerts (threshold below any reachable survival
// probability), so the benchmark measures pure observation throughput:
// feature extraction + model forward per customer-step, fanned across
// shards.
func benchMonitorConfig(b *testing.B) MonitorConfig {
	cfg := tinyMonitorConfig(b)
	cfg.Threshold = 1e-12
	return cfg
}

// benchFlows builds one reusable per-customer step batch. The batch is
// deliberately larger than the test fixtures so per-step extractor work
// dominates engine overhead, as it does in deployment.
func benchFlows(customer netip.Addr, n int, t0 time.Time) []netflow.Record {
	flows := make([]netflow.Record, 0, n)
	for j := 0; j < n; j++ {
		flows = append(flows, netflow.Record{
			Src:     netip.MustParseAddr(fmt.Sprintf("11.2.%d.%d", j%250+1, j+1)),
			Dst:     customer,
			Proto:   netflow.ProtoUDP,
			SrcPort: uint16(1024 + j),
			DstPort: 80,
			Packets: uint32(10 + j),
			Bytes:   uint32(6000 + 100*j),
			Start:   t0,
			End:     t0.Add(30 * time.Second),
		})
	}
	return flows
}

// benchEngineShards measures engine throughput at a given shard count.
// One benchmark op is a full round: every customer submits one step. The
// producers are parallel, one per shard, each feeding exactly the
// customers its shard owns — a single producer goroutine saturates before
// the shards do and pins every shard count at the same steps/sec, hiding
// all scaling. ReportMetric exposes customer-steps/sec so shard counts
// compare directly. With a non-nil registry the run doubles as the
// telemetry overhead proof: same workload, instrumented engine,
// step-latency quantiles reported alongside ns/op.
func benchEngineShards(b *testing.B, shards int, reg *telemetry.Registry) {
	const (
		customers = 64
		flowsPer  = 24
	)
	cs := testCustomers(customers)
	t0 := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	batches := make([][]netflow.Record, customers)
	for i, c := range cs {
		batches[i] = benchFlows(c, flowsPer, t0)
	}

	eng, err := New(Config{
		Monitor:   benchMonitorConfig(b),
		Shards:    shards,
		Queue:     1024,
		Policy:    Block,
		Telemetry: reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	go func() {
		for range eng.Alerts() {
		}
	}()

	// Partition customers by owning shard so each producer drives one
	// shard's mailbox with no cross-producer contention.
	byShard := make([][]int, shards)
	for i, c := range cs {
		s := eng.ShardOf(c)
		byShard[s] = append(byShard[s], i)
	}

	b.ResetTimer()
	var wg sync.WaitGroup
	for _, own := range byShard {
		if len(own) == 0 {
			continue
		}
		wg.Add(1)
		go func(own []int) {
			defer wg.Done()
			for n := 0; n < b.N; n++ {
				at := t0.Add(time.Duration(n) * time.Minute)
				for _, i := range own {
					if err := eng.Submit(cs[i], at, batches[i]); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(own)
	}
	wg.Wait()
	if err := eng.Drain(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()

	st := eng.Stats()
	want := uint64(b.N) * customers
	if st.Steps != want || st.Shed != 0 {
		b.Fatalf("engine processed %d steps (shed %d), want %d", st.Steps, st.Shed, want)
	}
	b.ReportMetric(float64(st.Steps)/b.Elapsed().Seconds(), "steps/sec")
	b.ReportMetric(float64(shards), "shards")
	if h := eng.StepLatency(); h != nil {
		sum := h.Summary()
		b.ReportMetric(float64(sum.P50), "p50-step-ns")
		b.ReportMetric(float64(sum.P90), "p90-step-ns")
		b.ReportMetric(float64(sum.P99), "p99-step-ns")
		b.ReportMetric(float64(sum.Max), "max-step-ns")
	}
}

func BenchmarkEngineShards1(b *testing.B)  { benchEngineShards(b, 1, nil) }
func BenchmarkEngineShards4(b *testing.B)  { benchEngineShards(b, 4, nil) }
func BenchmarkEngineShards16(b *testing.B) { benchEngineShards(b, 16, nil) }

// BenchmarkEngineShards4Telemetry is BenchmarkEngineShards4 with a live
// metric registry attached: the delta between the two ns/op numbers is
// the full cost of instrumentation (enqueue timestamps, two histogram
// Observes per step, channel-count mirroring). The acceptance budget is
// <5% over the uninstrumented baseline.
func BenchmarkEngineShards4Telemetry(b *testing.B) {
	benchEngineShards(b, 4, telemetry.NewRegistry())
}

// BenchmarkFallbackStep times the CDet fallback's share of a flood step:
// 2000 records of mixed protocol and flags classified against the
// customer's six signatures, then one detector observation (emit off, as
// while Healthy).
func BenchmarkFallbackStep(b *testing.B) {
	eng, err := New(Config{Monitor: benchMonitorConfig(b), Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	t0 := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
	customer := testCustomers(1)[0]
	var flows []netflow.Record
	for len(flows) < 2000 {
		flows = append(flows, benchFlows(customer, 250, t0)...)
	}
	protos := [...]netflow.Proto{netflow.ProtoTCP, netflow.ProtoUDP, netflow.ProtoICMP}
	for i := range flows {
		flows[i].Proto, flows[i].TCPFlags = protos[i%3], uint8(i%64)
		if i%7 == 0 {
			flows[i].SrcPort = 53
		}
	}
	s := eng.shards[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.fallbackStep(s, message{customer: customer, at: t0.Add(time.Duration(i) * time.Minute), flows: flows}, false)
	}
}
