package core_test

import (
	"testing"

	"nba/internal/fault"
	"nba/internal/rng"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

// FuzzParkingAgrees draws a run shape (app, task cap, aggregate size,
// workers, load) and a random fault plan, and checks the run reports and
// traces the same with parking on and off.
func FuzzParkingAgrees(f *testing.F) {
	f.Add(uint8(0), uint8(8), uint8(32), uint8(2), uint8(100), uint64(1))
	f.Add(uint8(1), uint8(1), uint8(4), uint8(3), uint8(40), uint64(2))
	f.Add(uint8(2), uint8(2), uint8(1), uint8(1), uint8(200), uint64(3))
	f.Fuzz(func(t *testing.T, app, maxInflight, maxAgg, workers, load uint8, planSeed uint64) {
		apps := []struct {
			name, lb string
			size     int
		}{{"ids", "gpu", 1024}, {"ipsec", "gpu", 256}, {"ipsec", "adaptive", 0}}
		a := apps[int(app)%len(apps)]
		nw := 1 + int(workers)%3
		cfg := appCfg(t, a.name, a.lb, a.size, nw, 1e8*float64(1+int(load)%200))
		cfg.Warmup, cfg.Duration = 200*simtime.Microsecond, 1200*simtime.Microsecond
		cm := *sysinfo.Default()
		cm.MaxInflightTasks = 1 + int(maxInflight)%16
		cm.MaxAggBatches = 1 + int(maxAgg)%64
		cfg.CostModel = &cm
		cfg.TaskTimeout = 300 * simtime.Microsecond
		cfg.FaultPlan = fault.RandomPlan(rng.New(planSeed), fault.Profile{
			Horizon: cfg.Warmup + cfg.Duration, Devices: 1, Ports: 2, Queues: nw})
		agree(t, false, func() { runCfg(t, cfg) })
	})
}
