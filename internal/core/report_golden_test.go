package core

import (
	"fmt"
	"strings"
	"testing"

	"nba/internal/fault"
	"nba/internal/gen"
	"nba/internal/golden"
	"nba/internal/simtime"
	"nba/internal/trace"
)

// goldenRow renders one report section's packet accounting as a single
// comparable line: the twelve counters, the latency sample count, the final
// offloading fraction and the section's trace digest.
func goldenRow(name string, rxDelivered, rxDropped, allocFailed, tx, graphDrops, shed, quarantined,
	offloaded, fallback, failed, timedOut, rejected, latCount uint64, finalW float64, digest string) string {
	return fmt.Sprintf("%s rx=%d rxdrop=%d allocfail=%d tx=%d gdrop=%d shed=%d quar=%d off=%d fb=%d failed=%d timedout=%d rejected=%d lat=%d w=%.6f digest=%q",
		name, rxDelivered, rxDropped, allocFailed, tx, graphDrops, shed, quarantined,
		offloaded, fallback, failed, timedOut, rejected, latCount, finalW, digest)
}

// goldenDump renders a whole report: the run-level row followed by one row
// per tenant section.
func goldenDump(r *Report, digest string) string {
	rows := []string{goldenRow("run", r.RxDelivered, r.RxDropped, r.AllocFailed, r.TxPackets, r.GraphDrops,
		r.ShedPackets, r.QuarantinedPackets, r.OffloadedPackets, r.FallbackPackets, r.FailedTasks,
		r.TimedOutTasks, r.RejectedTasks, r.Latency.Count(), r.FinalW, digest)}
	for i := range r.Tenants {
		tr := &r.Tenants[i]
		rows = append(rows, goldenRow(fmt.Sprintf("tenant[%d]=%q", i, tr.Name), tr.RxDelivered, tr.RxDropped,
			tr.AllocFailed, tr.TxPackets, tr.GraphDrops, tr.ShedPackets, tr.QuarantinedPackets,
			tr.OffloadedPackets, tr.FallbackPackets, tr.FailedTasks, tr.TimedOutTasks, tr.RejectedTasks,
			tr.Latency.Count(), tr.FinalW, tr.Digest))
	}
	return strings.Join(rows, "\n")
}

// TestReportGolden pins every packet-accounting counter, the latency sample
// count, the final offloading fraction and the trace digest of seven short
// runs that between them exercise every counter but TimedOutTasks, which
// only an evict epoch's force-rescue sets (NIC overflow, graph drops,
// offload, CPU rescue after a device failure or stall and after admission
// rejection, CoDel and admission shedding, quarantine) in single-app,
// two-tenant and admit/evict-churn hosting. The values, in testdata/report,
// were recorded before the accounting and tenant-install refactors; the
// counters have not moved since, and a counter that moves means behaviour
// changed. The trace digests move with the engine's event timeline
// (scripts/regolden.sh re-records them).
func TestReportGolden(t *testing.T) {
	for _, c := range reportGoldenCases() {
		t.Run(c.name, func(t *testing.T) {
			defer SetPacketPool(c.pool)()
			cfg := c.cfg()
			cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
			r := run(t, cfg)
			golden.Check(t, "testdata/report/"+c.name+".golden", goldenDump(r, cfg.Tracer.Digest())+"\n")
		})
	}
}

// reportGoldenCase is one TestReportGolden run. pool, when non-zero, sizes
// each worker's packet mempool (SetPacketPool).
type reportGoldenCase struct {
	name string
	pool int
	cfg  func() Config
}

// reportGoldenCases returns TestReportGolden's runs, in file order.
func reportGoldenCases() []reportGoldenCase {
	return []reportGoldenCase{
		// A pool below one RX burst: every full poll hits rx_nombuf.
		{"ipv4-cpu", 48, func() Config { return quickCfg(ipv4Config, 10e9, 64) }},
		{"ipsec-adaptive", 0, func() Config {
			cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "adaptive"), 3e9, 256)
			cfg.ALBObserve = 200 * simtime.Microsecond
			cfg.ALBUpdate = simtime.Millisecond
			return cfg
		}},
		{"ids-gpu", 0, func() Config {
			const dropMode = `
				FromInput() -> CheckIPHeader() -> LoadBalance("gpu")
					-> IDSMatchAC("drop") -> IDSMatchRE("drop") -> EchoBack() -> ToOutput();`
			cfg := quickCfg(dropMode, 3e9, 256)
			cfg.Generator = &gen.UDP4{FrameLen: 256, Flows: 1024, Seed: 1,
				AttackFrac: 0.05, AttackPattern: []byte("/bin/sh")}
			return cfg
		}},
		{"ipsec-device-faults", 0, func() Config {
			cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
			cfg.TaskTimeout = 500 * simtime.Microsecond
			cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
				{At: 3 * simtime.Millisecond, Kind: fault.DeviceFail, Device: 0},
				{At: 4 * simtime.Millisecond, Kind: fault.DeviceRecover, Device: 0},
				{At: 6 * simtime.Millisecond, Kind: fault.DeviceHang, Device: 0},
				{At: 8 * simtime.Millisecond, Kind: fault.DeviceRecover, Device: 0},
			}}
			return cfg
		}},
		{"two-tenants-overload", 0, func() Config {
			cfg := quickCfg("", 6e9, 64)
			cfg.Generator = nil
			cfg.Tenants = []Tenant{
				{Name: "ipv4", GraphConfig: ipv4Config, Share: 2,
					Generator: &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 1}},
				{Name: "ipsec", GraphConfig: sprintfConfig(ipsecConfigTpl, "adaptive"), Share: 1, RateScale: 2,
					Generator: &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 3}},
			}
			cfg.Overload = tightOverload()
			cfg.Overload.DeviceQueueDepth = 4
			cfg.ALBUpdate = simtime.Millisecond
			cfg.TaskTimeout = 500 * simtime.Microsecond
			cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
				{At: 4 * simtime.Millisecond, Kind: fault.DeviceHang, Device: 0},
				{At: 7 * simtime.Millisecond, Kind: fault.DeviceRecover, Device: 0},
			}}
			return cfg
		}},
		{"churn", 0, func() Config {
			// The admitted tenant gets an adaptive controller and a governor,
			// so the admit commit exercises every per-tenant control plane.
			cfg := churnCfg("ipsec")
			cfg.LatentTenants[0].GraphConfig = sprintfConfig(ipsecConfigTpl, "adaptive")
			cfg.Overload = tightOverload()
			cfg.ALBObserve = 200 * simtime.Microsecond
			cfg.ALBUpdate = 500 * simtime.Microsecond
			return cfg
		}},
		{"corruption-window", 0, corruptionCfg},
	}
}
