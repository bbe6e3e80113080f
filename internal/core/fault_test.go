package core

import (
	"testing"

	"nba/internal/fault"
	"nba/internal/gen"
	"nba/internal/invariant"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

func TestGPUOutageFallsBackToCPU(t *testing.T) {
	// Fixed 80% offload with the GPU dead for a window mid-run: every task
	// submitted during the outage fails fast and its packets must be rescued
	// onto the CPU — processed, transmitted, and returned to the pool.
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
	cfg.FaultPlan = fault.GPUOutage(4*simtime.Millisecond, 7*simtime.Millisecond, 0)
	r := run(t, cfg)

	if r.FailedTasks == 0 {
		t.Error("no failed tasks despite a 3 ms device outage")
	}
	if r.FallbackPackets == 0 {
		t.Error("no packets rescued onto the CPU")
	}
	if r.TimedOutTasks != 0 {
		t.Errorf("fail-fast outage produced %d timeouts, want 0", r.TimedOutTasks)
	}
	// Fallback packets were still processed and transmitted. The CPU alone
	// cannot carry the full IPsec load, so some backpressure shedding is
	// expected during the outage — but well over half the offered 4.0 Gbps
	// must still flow.
	if r.TxGbps < 2.2 {
		t.Errorf("TxGbps = %.2f during outage run, want > 2.2", r.TxGbps)
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d packets outstanding after fallback run", r.PoolOutstanding)
	}
	if ft := r.DeviceStats[0].FailedTasks; ft == 0 {
		t.Error("device recorded no failed tasks")
	}
}

func TestDeviceHangTimeoutRescue(t *testing.T) {
	// A hang (no completions, no failures) wedges the queued tasks until the
	// stall watchdog sees no finish for the 1 ms limit and hands the queue
	// back as failed tasks, which are rescued on the CPU. The device recovers
	// before the end so the run drains cleanly; a rescued task must never
	// reach the device again, so Recover finds nothing of it to reschedule.
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
	cfg.Duration = 12 * simtime.Millisecond
	cfg.TaskTimeout = 1 * simtime.Millisecond
	cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
		{At: 4 * simtime.Millisecond, Kind: fault.DeviceHang, Device: 0},
		{At: 8 * simtime.Millisecond, Kind: fault.DeviceRecover, Device: 0},
	}}
	cfg.Tracer = trace.New(trace.Options{Capacity: 1 << 16,
		Mask: trace.MaskOf(trace.KindGPUSubmit, trace.KindFallback)})
	r := run(t, cfg)

	if r.FailedTasks == 0 {
		t.Error("no failed tasks despite a 4 ms hang with a 1 ms stall limit")
	}
	if r.TimedOutTasks != 0 {
		t.Errorf("%d tasks timed out; only an epoch force-rescue times tasks out", r.TimedOutTasks)
	}
	if r.FallbackPackets == 0 {
		t.Error("no packets rescued onto the CPU")
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d packets outstanding (double-free or lost rescue)", r.PoolOutstanding)
	}
	if r.TxGbps < 2.0 {
		t.Errorf("TxGbps = %.2f, want over half of offered 4.0 despite the hang", r.TxGbps)
	}
	if cfg.Tracer.Dropped() != 0 {
		t.Fatalf("trace ring overflowed (%d events dropped)", cfg.Tracer.Dropped())
	}
	// The device is the topology's only one, so task IDs are unique.
	rescued := map[int64]bool{}
	for _, ev := range cfg.Tracer.Events() {
		switch {
		case ev.Kind == trace.KindFallback && ev.A != 0:
			rescued[ev.A] = true
		case ev.Kind == trace.KindGPUSubmit && rescued[ev.A]:
			t.Errorf("task %d reached the device again at %v after its CPU rescue", ev.A, ev.At)
		}
	}
	if len(rescued) == 0 {
		t.Error("trace holds no rescued device task")
	}
}

func TestDeviceSlowdownDegradesNotWedges(t *testing.T) {
	// A 4x-slower device is degraded capacity, not a fault: tasks still
	// complete (no failures, no timeouts at the default 5 ms), the run
	// drains, and nothing leaks.
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
	cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
		{At: 3 * simtime.Millisecond, Kind: fault.DeviceSlowdown, Device: 0,
			KernelFactor: 4, CopyFactor: 4},
		{At: 7 * simtime.Millisecond, Kind: fault.DeviceRecover, Device: 0},
	}}
	r := run(t, cfg)

	if r.FailedTasks != 0 || r.TimedOutTasks != 0 {
		t.Errorf("slowdown caused %d failures / %d timeouts, want none",
			r.FailedTasks, r.TimedOutTasks)
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d packets outstanding", r.PoolOutstanding)
	}
	if r.TxGbps < 2.0 {
		t.Errorf("TxGbps = %.2f, slowdown should degrade, not collapse", r.TxGbps)
	}
}

func TestRxQueueFlapMidRun(t *testing.T) {
	// Flap every RX queue of port 0 for 5 ms: deliveries stop, the 4096-deep
	// rings (~1 Mpps each) overflow into the drop counters, and after
	// recovery the run drains with full packet conservation.
	cfg := quickCfg(ipv4Config, 2e9, 64)
	cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
		{At: 3 * simtime.Millisecond, Kind: fault.RxQueueDown, Port: 0, Queue: -1},
		{At: 8 * simtime.Millisecond, Kind: fault.RxQueueUp, Port: 0, Queue: -1},
	}}
	r := run(t, cfg)

	if r.RxDropped == 0 {
		t.Error("no drops despite a 5 ms RX-queue flap at 2 Gbps")
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d packets outstanding after flap run", r.PoolOutstanding)
	}
	// Port 1 was untouched (≈2 Gbps) and port 0 still carried traffic
	// outside the flap window.
	if r.TxGbps < 2.0 {
		t.Errorf("TxGbps = %.2f, want port 1 plus partial port 0", r.TxGbps)
	}

	// The same run without the flap drops nothing — the drops above are the
	// fault's doing, not overload.
	clean := run(t, quickCfg(ipv4Config, 2e9, 64))
	if clean.RxDropped != 0 {
		t.Errorf("fault-free control run dropped %d packets", clean.RxDropped)
	}
}

func TestAdaptiveCollapsesAndReclimbsOnOutage(t *testing.T) {
	// The paper's robustness claim under an injected outage: the adaptive
	// balancer must push W to ~0 while the GPU is dead (every offload fails)
	// and re-discover the GPU-favouring optimum after recovery.
	const (
		failAt    = 40 * simtime.Millisecond
		recoverAt = 70 * simtime.Millisecond
	)
	// The 2 ms control period fills the controller's 16-sample smoothing
	// window each step: with 1 ms updates the boundary perturbations near
	// w=0 are judged on too few batch-quantised samples and the escape from
	// the collapse becomes a random walk.
	cfg := Config{
		GraphConfig:       sprintfConfig(ipsecConfigTpl, "adaptive"),
		Generator:         &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 1},
		OfferedBpsPerPort: 10e9,
		WorkersPerSocket:  7,
		Warmup:            5 * simtime.Millisecond,
		Duration:          250 * simtime.Millisecond,
		ALBObserve:        250 * simtime.Microsecond,
		ALBUpdate:         2 * simtime.Millisecond,
		LatencySample:     64,
		Seed:              3,
		FaultPlan:         fault.GPUOutage(failAt, recoverAt, 0),
	}
	r := run(t, cfg)

	if r.FailedTasks == 0 {
		t.Fatal("outage produced no failed tasks")
	}
	// During the late outage (allowing the collapse a few control periods)
	// W must sit at ~0: offloading to a dead device wastes the packets'
	// rescue work.
	for _, tp := range r.LBTrace {
		if tp.At >= failAt+10*simtime.Millisecond && tp.At < recoverAt && tp.W > 0.1 {
			t.Errorf("W = %.3f at %v during outage, want <= 0.1", tp.W, tp.At)
		}
	}
	// After recovery the climb resumes: like the no-fault run
	// (TestALBReconvergesAfterWorkloadShift), 64B IPsec is GPU-favouring.
	if r.FinalW < 0.6 {
		t.Errorf("final W = %.3f after recovery, want > 0.6 (re-climb)", r.FinalW)
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d packets outstanding", r.PoolOutstanding)
	}
}

func TestRateBurstShiftsOfferedLoad(t *testing.T) {
	// A 2x burst for 3 ms of the 8 ms measured window: total delivered
	// arrivals must exceed the flat-rate run's, and the composition with
	// mid-run rate changes must stay consistent (burst factor applies to the
	// current nominal rate).
	flat := run(t, quickCfg(l2Config, 2e9, 64))
	cfg := quickCfg(l2Config, 2e9, 64)
	cfg.FaultPlan = &fault.Plan{Events: fault.Burst(4*simtime.Millisecond, 3*simtime.Millisecond, 2)}
	r := run(t, cfg)

	if r.RxDelivered <= flat.RxDelivered {
		t.Errorf("burst run delivered %d <= flat run's %d", r.RxDelivered, flat.RxDelivered)
	}
	if r.TxGbps <= flat.TxGbps {
		t.Errorf("burst TxGbps %.2f <= flat %.2f", r.TxGbps, flat.TxGbps)
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d packets outstanding", r.PoolOutstanding)
	}
}

func TestFaultPlanValidationRejectsBadTargets(t *testing.T) {
	bad := []fault.Plan{
		{Events: []fault.Event{{Kind: fault.DeviceFail, Device: 5}}},
		{Events: []fault.Event{{Kind: fault.RxQueueDown, Port: 9}}},
		{Events: []fault.Event{{Kind: fault.RateBurst, RateFactor: -1}}},
	}
	for i := range bad {
		cfg := quickCfg(l2Config, 1e9, 64)
		cfg.FaultPlan = &bad[i]
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("plan %d: NewSystem accepted an invalid fault plan", i)
		}
	}
}

// TestFaultRunsAreDeterministic runs the canonical outage scenario twice and
// requires byte-identical outcomes: the plan is part of the run's identity.
func TestFaultRunsAreDeterministic(t *testing.T) {
	mk := func() *Report {
		cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
		cfg.FaultPlan = fault.GPUOutage(4*simtime.Millisecond, 7*simtime.Millisecond, 0)
		return run(t, cfg)
	}
	a, b := mk(), mk()
	if a.TxGbps != b.TxGbps || a.FailedTasks != b.FailedTasks ||
		a.FallbackPackets != b.FallbackPackets || a.RxDropped != b.RxDropped ||
		a.OffloadedPackets != b.OffloadedPackets {
		t.Errorf("fault runs diverged: %+v vs %+v",
			[]uint64{uint64(a.TxGbps * 1e6), a.FailedTasks, a.FallbackPackets, a.RxDropped, a.OffloadedPackets},
			[]uint64{uint64(b.TxGbps * 1e6), b.FailedTasks, b.FallbackPackets, b.RxDropped, b.OffloadedPackets})
	}
}

// TestFaultPlanTopologyUsesConfiguredQueues pins the Validate wiring: the
// queue bound comes from the resolved WorkersPerSocket, not the raw config.
func TestFaultPlanTopologyUsesConfiguredQueues(t *testing.T) {
	cfg := quickCfg(l2Config, 1e9, 64)
	cfg.Topology = sysinfo.SingleSocketTopology(4, 2) // 3 workers -> queues 0..2
	cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
		{Kind: fault.RxQueueDown, Port: 0, Queue: 2},
	}}
	if _, err := NewSystem(cfg); err != nil {
		t.Errorf("queue 2 of 3 rejected: %v", err)
	}
	cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
		{Kind: fault.RxQueueDown, Port: 0, Queue: 3},
	}}
	if _, err := NewSystem(cfg); err == nil {
		t.Error("queue 3 of 3 accepted")
	}
}

// TestSameTickFaultOrderIsPlanOrder pins the tie-break for contradictory
// fault events scheduled at the same virtual tick: they apply in plan order
// (Plan.Sorted is stable), the last writer wins, and the outcome is the
// same on every replay — not whichever event a sort happened to slot first.
func TestSameTickFaultOrderIsPlanOrder(t *testing.T) {
	const tick = 4 * simtime.Millisecond
	runOrder := func(firstFactor, secondFactor float64) (string, *Report) {
		cfg := quickCfg(ipv4Config, 2e9, 64)
		cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
		cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
			{At: tick, Kind: fault.RateBurst, RateFactor: firstFactor},
			{At: tick, Kind: fault.RateBurst, RateFactor: secondFactor},
		}}
		r := run(t, cfg)
		return cfg.Tracer.Digest(), r
	}

	// 8x-then-1x nets out to nominal: the 8x factor is overwritten within
	// the same instant, so no extra load ever reaches the queues.
	flat := run(t, quickCfg(ipv4Config, 2e9, 64))
	cancelled, r := runOrder(8, 1)
	if r.RxDelivered != flat.RxDelivered {
		t.Errorf("8x-then-1x delivered %d, want the flat run's %d (last event wins)",
			r.RxDelivered, flat.RxDelivered)
	}
	for i := 0; i < 9; i++ {
		d, _ := runOrder(8, 1)
		if d != cancelled {
			t.Fatalf("replay %d: same-tick fault digest diverged:\n%s\n%s", i, d, cancelled)
		}
	}

	// The reversed plan must give the reversed outcome: 1x-then-8x leaves
	// the burst in force for the rest of the run.
	reversed, r2 := runOrder(1, 8)
	if r2.RxDelivered <= flat.RxDelivered {
		t.Errorf("1x-then-8x delivered %d <= flat %d; the surviving burst factor is not applied",
			r2.RxDelivered, flat.RxDelivered)
	}
	if reversed == cancelled {
		t.Error("reversed same-tick plan produced an identical digest; order is not being honoured")
	}
}

// TestFlapUnderLoadConservation pins the documented down-queue semantics
// end to end: RSS keeps offering load to a flapped-down queue, the overflow
// beyond ring capacity lands in head-drop accounting even when the queue is
// never polled again, and the conservation identity still balances with the
// oracle armed.
func TestFlapUnderLoadConservation(t *testing.T) {
	ck := invariant.New()
	cfg := quickCfg(ipv4Config, 2e9, 64)
	cfg.Checker = ck
	// Down at 3 ms, never recovered: ~7 ms of arrivals pile into 4096-deep
	// rings that stop delivering.
	cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
		{At: 3 * simtime.Millisecond, Kind: fault.RxQueueDown, Port: 0, Queue: -1},
	}}
	r := run(t, cfg)

	if r.RxDropped == 0 {
		t.Error("no head-drops despite ~7 ms of load into downed 4096-deep rings")
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d packets outstanding", r.PoolOutstanding)
	}
	if !r.Conserved() {
		t.Errorf("conservation broken: %+v", r.Counters)
	}
	for _, v := range ck.Violations() {
		t.Errorf("invariant violation: %+v", v)
	}
}
