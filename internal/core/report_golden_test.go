package core

import (
	"fmt"
	"strings"
	"testing"

	"nba/internal/fault"
	"nba/internal/gen"
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
// two-tenant and admit/evict-churn hosting. The values were recorded before
// the accounting and tenant-install refactors, and the two hang cases again
// when the stall watchdog replaced the per-task timeout; a difference means
// behaviour changed.
func TestReportGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  func() Config
		want string
	}{
		{"ipv4-cpu", func() Config {
			cfg := quickCfg(ipv4Config, 10e9, 64)
			cfg.PacketPoolPerWorker = 48 // below one RX burst: every full poll hits rx_nombuf
			return cfg
		}, goldenIPv4CPU},
		{"ipsec-adaptive", func() Config {
			cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "adaptive"), 3e9, 256)
			cfg.ALBObserve = 200 * simtime.Microsecond
			cfg.ALBUpdate = simtime.Millisecond
			return cfg
		}, goldenIPsecAdaptive},
		{"ids-gpu", func() Config {
			const dropMode = `
				FromInput() -> CheckIPHeader() -> LoadBalance("gpu")
					-> IDSMatchAC("drop") -> IDSMatchRE("drop") -> EchoBack() -> ToOutput();`
			cfg := quickCfg(dropMode, 3e9, 256)
			cfg.Generator = &gen.UDP4{FrameLen: 256, Flows: 1024, Seed: 1,
				AttackFrac: 0.05, AttackPattern: []byte("/bin/sh")}
			return cfg
		}, goldenIDSGPU},
		{"ipsec-device-faults", func() Config {
			cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
			cfg.TaskTimeout = 500 * simtime.Microsecond
			cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
				{At: 3 * simtime.Millisecond, Kind: fault.DeviceFail, Device: 0},
				{At: 4 * simtime.Millisecond, Kind: fault.DeviceRecover, Device: 0},
				{At: 6 * simtime.Millisecond, Kind: fault.DeviceHang, Device: 0},
				{At: 8 * simtime.Millisecond, Kind: fault.DeviceRecover, Device: 0},
			}}
			return cfg
		}, goldenIPsecFaults},
		{"two-tenants-overload", func() Config {
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
		}, goldenTwoTenantsOverload},
		{"churn", func() Config {
			// The admitted tenant gets an adaptive controller and a governor,
			// so the admit commit exercises every per-tenant control plane.
			cfg := churnCfg("ipsec")
			cfg.LatentTenants[0].GraphConfig = sprintfConfig(ipsecConfigTpl, "adaptive")
			cfg.Overload = tightOverload()
			cfg.ALBObserve = 200 * simtime.Microsecond
			cfg.ALBUpdate = 500 * simtime.Microsecond
			return cfg
		}, goldenChurn},
		{"corruption-window", corruptionCfg, goldenCorruption},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg()
			cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
			r := run(t, cfg)
			if got := goldenDump(r, cfg.Tracer.Digest()); got != c.want {
				t.Errorf("report moved.\n got:\n%s\nwant:\n%s", got, c.want)
			}
		})
	}
}

const (
	goldenIPv4CPU = `run rx=119406 rxdrop=178212 allocfail=39744 tx=119406 gdrop=0 shed=0 quar=0 off=0 fb=0 failed=0 timedout=0 rejected=0 lat=99072 w=0.000000 digest="sha256:2f6b1ac01af19ea114529acd3d6876e3dfe747a325f81d9e434661ba548e05e0"
tenant[0]="" rx=119406 rxdrop=178212 allocfail=39744 tx=119406 gdrop=0 shed=0 quar=0 off=0 fb=0 failed=0 timedout=0 rejected=0 lat=99072 w=0.000000 digest=""`
	goldenIPsecAdaptive = `run rx=27168 rxdrop=0 allocfail=0 tx=27168 gdrop=0 shed=0 quar=0 off=15387 fb=0 failed=0 timedout=0 rejected=0 lat=22942 w=0.540000 digest="sha256:a194666e6fdab1168ac34369c41585792d12c41f3ffa301fd90f0554ed5d21b8"
tenant[0]="" rx=27168 rxdrop=0 allocfail=0 tx=27168 gdrop=0 shed=0 quar=0 off=15387 fb=0 failed=0 timedout=0 rejected=0 lat=22942 w=0.540000 digest=""`
	goldenIDSGPU = `run rx=27168 rxdrop=0 allocfail=0 tx=25905 gdrop=1263 shed=0 quar=0 off=27168 fb=0 failed=0 timedout=0 rejected=0 lat=20919 w=0.000000 digest="sha256:dc2c233b2425115be039f3d4b2b88517a2c7e899c88e7d3c77148c9eb97ac5a4"
tenant[0]="" rx=27168 rxdrop=0 allocfail=0 tx=25905 gdrop=1263 shed=0 quar=0 off=27168 fb=0 failed=0 timedout=0 rejected=0 lat=20919 w=0.000000 digest=""`
	goldenIPsecFaults = `run rx=59520 rxdrop=0 allocfail=0 tx=59520 gdrop=0 shed=0 quar=0 off=47865 fb=8192 failed=9 timedout=0 rejected=0 lat=51394 w=0.000000 digest="sha256:cecc9a266aa70eb325cd650e02c87857371494e6acbad6a6835d267118b07e5f"
tenant[0]="" rx=59520 rxdrop=0 allocfail=0 tx=59520 gdrop=0 shed=0 quar=0 off=47865 fb=8192 failed=9 timedout=0 rejected=0 lat=51394 w=0.000000 digest=""`
	goldenTwoTenantsOverload = `run rx=121908 rxdrop=116184 allocfail=0 tx=91000 gdrop=0 shed=30908 quar=0 off=41532 fb=7036 failed=13 timedout=0 rejected=1 lat=79538 w=0.000000 digest="sha256:76b1fd29e366dda39dd615bd437a5fb75fcfe19fa14fec845d274ed2a8b2e9a6"
tenant[0]="ipv4" rx=61014 rxdrop=58032 allocfail=0 tx=45793 gdrop=0 shed=15221 quar=0 off=0 fb=0 failed=0 timedout=0 rejected=0 lat=39732 w=0.000000 digest="sha256:48b2dd75a7d101bc0525c3375ed47fb72fc6286ddb93773eac024610b1eb1017"
tenant[1]="ipsec" rx=60894 rxdrop=58152 allocfail=0 tx=45207 gdrop=0 shed=15687 quar=0 off=41532 fb=7036 failed=13 timedout=0 rejected=1 lat=39806 w=1.000000 digest="sha256:f732911fb1fd0de7b46fe9fa12912220e761ef5ecf6756137acb6ae8d128e6e5"`
	goldenChurn = `run rx=46980 rxdrop=0 allocfail=0 tx=46970 gdrop=0 shed=10 quar=0 off=5846 fb=0 failed=0 timedout=0 rejected=0 lat=35084 w=0.000000 digest="sha256:bf8eb75e34d566d78883c1e5cfd3cff5d184a12429df0456fc0f4e752c4625fc"
tenant[0]="victim" rx=37062 rxdrop=0 allocfail=0 tx=37054 gdrop=0 shed=8 quar=0 off=0 fb=0 failed=0 timedout=0 rejected=0 lat=25168 w=0.000000 digest="sha256:ba86fcddafb7ddef788bf8473f75f8c8c3242492a0b8056b8159f4ea9fe12e62"
tenant[1]="churn" rx=9918 rxdrop=0 allocfail=0 tx=9916 gdrop=0 shed=2 quar=0 off=5846 fb=0 failed=0 timedout=0 rejected=0 lat=9916 w=0.580000 digest="sha256:8a7d7e3829e999f00232085d8b41f1f45f73fdadecd52ec984748e5a54c46396"`
	goldenCorruption = `run rx=51650 rxdrop=7870 allocfail=0 tx=46274 gdrop=0 shed=0 quar=5376 off=41650 fb=3712 failed=3 timedout=0 rejected=0 lat=40898 w=0.000000 digest="sha256:82d0f85fff5ac1b5f433af2bc48493771284a1a634ae3122756798e45b93f4e1"
tenant[0]="" rx=51650 rxdrop=7870 allocfail=0 tx=46274 gdrop=0 shed=0 quar=5376 off=41650 fb=3712 failed=3 timedout=0 rejected=0 lat=40898 w=0.000000 digest=""`
)
