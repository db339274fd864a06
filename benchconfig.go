package xatu

import (
	"time"

	"github.com/xatu-go/xatu/internal/eval"
)

// BenchPipelineConfig is the scaled-down pipeline configuration xatu-bench,
// xatu-fleet and the packet-to-verdict benchmark share: a 10-customer world
// at 2-minute steps with dense campaigns, sized so every experiment runs on
// a laptop in minutes.
func BenchPipelineConfig(days int, seed int64) PipelineConfig {
	cfg := eval.DefaultConfig()
	cfg.World.Days = days
	cfg.World.Seed = seed
	cfg.World.NumCustomers = 10
	cfg.World.Step = 2 * time.Minute
	cfg.World.NumBotnets = 5
	cfg.World.BotsPerBotnet = 40
	cfg.World.MeanAttacksPerBotnetPerWeek = 16
	cfg.World.MeanPeakMbps = 30
	cfg.World.PrepDaysMax = 4
	cfg.TrainFrac, cfg.ValFrac, cfg.StabFrac = 0.45, 0.30, 0.05
	cfg.LookbackSteps = 120
	cfg.Model.Hidden = 10
	cfg.Model.Window = 10
	cfg.Model.PoolShort, cfg.Model.PoolMed, cfg.Model.PoolLong = 1, 5, 15
	cfg.Train.Epochs = 14
	cfg.MinTypeExamples = 6
	// The paper looks back 10 days for A4; on a ~2-week simulation that
	// window never saturates during training but does during testing,
	// creating feature drift. A 3-day window saturates in both splits.
	cfg.A4WindowDays = 3
	return cfg
}
