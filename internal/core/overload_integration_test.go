package core

// End-to-end tests for the overload-control subsystem (internal/overload
// threaded through device admission, worker shedding and the governor):
// bounded device queues under a hung device, the conservation identity with
// shedding over every sample application, the tail-latency bound under 2x
// offered load, and determinism of the shedding decisions.

import (
	"testing"

	"nba/internal/fault"
	"nba/internal/gen"
	"nba/internal/invariant"
	"nba/internal/overload"
	"nba/internal/simtime"
	"nba/internal/trace"
)

const (
	ipv4LBConfigTpl = `
		FromInput() -> CheckIPHeader() -> LoadBalance("%s")
			-> IPLookup("entries=4096", "seed=42") -> DecIPTTL() -> ToOutput();`

	ipv6LBConfigTpl = `
		FromInput() -> CheckIP6Header() -> LoadBalance("%s")
			-> LookupIP6Route("entries=4096", "seed=42") -> DecIP6HLIM() -> ToOutput();`

	idsLBConfigTpl = `
		FromInput() -> CheckIPHeader() -> LoadBalance("%s")
			-> IDSMatchAC("alert") -> IDSMatchRE("alert") -> EchoBack() -> ToOutput();`
)

// tightOverload is an overload config whose CoDel clock fits the short test
// runs (the production default interval of 500 us is sized for long-lived
// service and barely ramps within ~10 simulated milliseconds).
func tightOverload() *overload.Config {
	return &overload.Config{CoDelInterval: 100 * simtime.Microsecond}
}

func TestOverloadBoundsDeviceQueueDuringHang(t *testing.T) {
	// A hung device stops completing tasks. With the bounded task queue
	// armed, submissions beyond the depth are refused (and rescued or shed)
	// and the queue high-watermark respects the bound. Without it, the stall
	// watchdog is what bounds the queue: it hands every parked task back, so
	// nothing a worker has given up on stays queued, and the queue never
	// holds more than the workers' outstanding tasks.
	const workers, maxInflight = 3, 2
	mk := func() Config {
		cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
		cfg.Duration = 12 * simtime.Millisecond
		cfg.TaskTimeout = 500 * simtime.Microsecond
		cfg.WorkersPerSocket = workers
		cfg.MaxInflightTasks = maxInflight
		cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
			{At: 3 * simtime.Millisecond, Kind: fault.DeviceHang, Device: 0},
			{At: 9 * simtime.Millisecond, Kind: fault.DeviceRecover, Device: 0},
		}}
		return cfg
	}

	// The fault-free run's queue peaks at this depth, so only the hang
	// fills it.
	const depth = 3
	bounded := mk()
	bounded.Overload = &overload.Config{DeviceQueueDepth: depth}
	rb := run(t, bounded)
	if rb.RejectedTasks == 0 {
		t.Error("bounded run refused no submissions during the hang")
	}
	if rb.DeviceQueueHWM > depth {
		t.Errorf("device queue HWM %d exceeds configured depth %d", rb.DeviceQueueHWM, depth)
	}
	if rb.PoolOutstanding != 0 {
		t.Errorf("bounded run leaked %d packets", rb.PoolOutstanding)
	}

	unbounded := mk()
	ru := run(t, unbounded)
	if ru.FailedTasks == 0 {
		t.Error("unbounded run failed no tasks: the hang was never detected")
	}
	if ru.DeviceQueueHWM > workers*maxInflight {
		t.Errorf("unbounded run's device queue HWM %d exceeds the workers' %d outstanding tasks",
			ru.DeviceQueueHWM, workers*maxInflight)
	}
	if ru.RejectedTasks != 0 {
		t.Errorf("unbounded run refused %d submissions", ru.RejectedTasks)
	}
	if ru.PoolOutstanding != 0 {
		t.Errorf("unbounded run leaked %d packets", ru.PoolOutstanding)
	}
}

func TestOverloadConservationWithShedAllApps(t *testing.T) {
	// Fault-free guard over every sample application: with overload control
	// armed and shedding active, the conservation identity must hold exactly
	// after drain, the oracle must stay silent, and nothing may leak.
	apps := []struct {
		name, cfgText string
		v6            bool
	}{
		{"ipv4", sprintfConfig(ipv4LBConfigTpl, "fixed=0.8"), false},
		{"ipv6", sprintfConfig(ipv6LBConfigTpl, "fixed=0.8"), true},
		{"ipsec", sprintfConfig(ipsecConfigTpl, "fixed=0.8"), false},
		{"ids", sprintfConfig(idsLBConfigTpl, "fixed=0.8"), false},
	}
	for _, app := range apps {
		t.Run(app.name, func(t *testing.T) {
			cfg := quickCfg(app.cfgText, 6e9, 64)
			if app.v6 {
				cfg.Generator = &gen.UDP6{FrameLen: 78, Flows: 1024, Seed: 1}
			}
			cfg.Overload = tightOverload()
			ck := invariant.New()
			cfg.Checker = ck
			r := run(t, cfg)

			if !r.Conserved() {
				t.Errorf("conservation broken: %+v", r.Counters)
			}
			if r.PoolOutstanding != 0 {
				t.Errorf("%d packets leaked", r.PoolOutstanding)
			}
			for _, v := range ck.Violations() {
				t.Errorf("invariant violation: %v", v)
			}
		})
	}
}

func TestOverloadShedBoundsTailLatency(t *testing.T) {
	// The headline robustness property: at 2x the base offered load the
	// shedder keeps p99.9 of admitted packets within 10x of the uncongested
	// 0.8x baseline, and no worse than the same overload without shedding.
	mk := func(bps float64, shed bool) Config {
		cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), bps, 64)
		cfg.Duration = 12 * simtime.Millisecond
		cfg.LatencySample = 4
		if shed {
			cfg.Overload = tightOverload()
		}
		return cfg
	}
	const base = 2e9
	baseline := run(t, mk(0.8*base, true))
	shedOn := run(t, mk(2*base, true))
	shedOff := run(t, mk(2*base, false))

	basePk := baseline.Latency.Percentile(99.9)
	onPk := shedOn.Latency.Percentile(99.9)
	offPk := shedOff.Latency.Percentile(99.9)
	if basePk <= 0 || onPk <= 0 {
		t.Fatalf("degenerate percentiles: baseline %v, shed-on %v", basePk, onPk)
	}
	if onPk > 10*basePk {
		t.Errorf("shed-on p99.9 %v exceeds 10x the 0.8x baseline %v", onPk, basePk)
	}
	if onPk > offPk {
		t.Errorf("shedding made the tail worse: %v shed-on vs %v shed-off", onPk, offPk)
	}
	if shedOn.ShedPackets == 0 {
		t.Error("2x overload shed nothing: the shedder never engaged")
	}
	if shedOn.RxBacklogHWM == 0 || shedOn.WorkerInflightHWM == 0 {
		t.Errorf("high-watermark stats missing: rx %d, inflight %d",
			shedOn.RxBacklogHWM, shedOn.WorkerInflightHWM)
	}
}

func TestOverloadGovernorEscalatesUnderSustainedLoad(t *testing.T) {
	// 3x offered load saturates the CPU side for the whole run: the governor
	// must step past Normal and the peak must be recorded in the report.
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 6e9, 64)
	cfg.Overload = tightOverload()
	r := run(t, cfg)
	if r.OverloadPeak < overload.LevelTrim {
		t.Errorf("governor peak %v never left normal under 3x load", r.OverloadPeak)
	}
	if r.OverloadFinal > r.OverloadPeak {
		t.Errorf("final level %v above peak %v", r.OverloadFinal, r.OverloadPeak)
	}
}

func TestOverloadShedDeterministic(t *testing.T) {
	// Shedding decisions are part of the virtual-time event stream: two
	// identical armed runs at 2x load must digest identically.
	digest := func() string {
		cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 4e9, 64)
		cfg.Overload = tightOverload()
		tr := trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
		cfg.Tracer = tr
		r := run(t, cfg)
		if r.ShedPackets == 0 {
			t.Fatal("2x run shed nothing: determinism test is vacuous")
		}
		return tr.Digest()
	}
	if d1, d2 := digest(), digest(); d1 != d2 {
		t.Errorf("armed runs digest differently: %s vs %s", d1, d2)
	}
}
