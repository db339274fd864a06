package xatu

import (
	"github.com/xatu-go/xatu/internal/telemetry"
)

// The observability layer (internal/telemetry): a dependency-free metric
// registry with Prometheus text exposition, latency histograms, and an
// HTTP server for /metrics, /healthz, /debug/alerts and pprof. Pass a
// registry as EngineConfig.Telemetry and IngestConfig.Telemetry (and to
// Exporter.RegisterMetrics), then serve it with NewTelemetryServer.

type (
	// TelemetryRegistry collects counters, gauges and histograms and
	// renders them in Prometheus text exposition format.
	TelemetryRegistry = telemetry.Registry
	// TelemetryServer exposes a registry over HTTP: /metrics, /healthz,
	// /debug/alerts (recent decision traces) and /debug/pprof.
	TelemetryServer = telemetry.Server
	// TelemetryLabel is one metric label pair.
	TelemetryLabel = telemetry.Label
	// TelemetryHealth is the /healthz payload: OK plus free-form detail.
	TelemetryHealth = telemetry.Health
	// LatencyHistogram is a log-bucketed latency histogram with an
	// allocation-free Observe and p50/p90/p99/max summaries.
	LatencyHistogram = telemetry.Histogram
	// LatencySummary is a histogram quantile snapshot.
	LatencySummary = telemetry.LatencySummary
)

// NewTelemetryRegistry returns an empty metric registry.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewTelemetryServer binds addr and serves the registry's metrics plus
// health and debug endpoints. health may be nil (always OK).
func NewTelemetryServer(addr string, reg *TelemetryRegistry, health func() TelemetryHealth) (*TelemetryServer, error) {
	return telemetry.NewServer(addr, reg, health)
}
