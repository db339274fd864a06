package engine

import (
	"net/netip"
	"time"

	"github.com/xatu-go/xatu/internal/netflow"
)

// Hooks for engine_test, the external test package: the ingest pipeline
// imports this package, so only an external test can drive the engine
// through it.
type (
	StepBatch = stepBatch
	AlertKey  = alertKey
)

var (
	TinyModel         = tinyModel
	TinyExtractor     = tinyExtractor
	TestCustomers     = testCustomers
	UDPFlows          = udpFlows
	ReplayIntoMonitor = replayIntoMonitor
	ReplayIntoEngine  = replayIntoEngine
	ReferenceAlerts   = referenceAlerts
)

func NewStepBatch(at time.Time, flows map[netip.Addr][]netflow.Record) StepBatch {
	return stepBatch{at: at, flows: flows}
}
