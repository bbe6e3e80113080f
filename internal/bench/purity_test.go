package bench

import (
	"testing"

	"nba/internal/simtime"
)

// TestGPUOnlyRunsStayOnTheDevice is the purity guard for fault-free GPU-only
// cells: a healthy device with a long, copy-saturated queue still finishes
// tasks, so nothing may be failed, timed out or rescued onto the CPU. The
// rows are Fig. 12 GPU-only cells, in shorter windows, on the default
// machine at 10 Gb/s per port, where the device queue runs longer than the
// 5 ms stall limit.
func TestGPUOnlyRunsStayOnTheDevice(t *testing.T) {
	cells := []struct {
		name      string
		app       string
		size      int
		warm, dur simtime.Time
	}{
		{"ipsec-1024B", "ipsec", 1024, 2 * simtime.Millisecond, 2 * simtime.Millisecond},
		{"ids-1024B", "ids", 1024, 2 * simtime.Millisecond, 8 * simtime.Millisecond},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := AppRun(c.app, "gpu", c.size, 42)
			if err != nil {
				t.Fatal(err)
			}
			cfg.OfferedBpsPerPort, cfg.Warmup, cfg.Duration = 10e9, c.warm, c.dur
			r, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.FallbackPackets != 0 || r.FailedTasks != 0 || r.TimedOutTasks != 0 {
				t.Errorf("GPU-only run left the device: %d packets rescued, %d tasks failed, %d timed out",
					r.FallbackPackets, r.FailedTasks, r.TimedOutTasks)
			}
		})
	}
}
