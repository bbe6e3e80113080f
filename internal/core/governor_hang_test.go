package core_test

import (
	"testing"

	"nba/internal/core"
	"nba/internal/fault"
	"nba/internal/overload"
	"nba/internal/trace"
)

// TestGovernorSeesDropsWhileWorkersAreHeldBack: a hung device with the stall
// watchdog off holds every worker back at its task cap, so no RX queue is
// polled while the rings overflow. The governor counts the overflow up to
// each window, not to each queue's last poll, so it steps during the hang
// rather than after the device recovers.
func TestGovernorSeesDropsWhileWorkersAreHeldBack(t *testing.T) {
	const recoverAt = 2400 * us
	cfg := appCfg(t, "ipsec", "gpu", 1024, 2, 4e9)
	cfg.TaskTimeout = -1
	cfg.Overload = &overload.Config{CoDelInterval: 100 * us}
	cfg.Topology.RxQueueCapacity = 128
	cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
		{At: 400 * us, Kind: fault.DeviceHang},
		{At: recoverAt, Kind: fault.DeviceRecover},
	}}
	tr := trace.New(trace.Options{Mask: trace.MaskOf(trace.KindOverloadLevel)})
	cfg.Tracer = tr
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.RxDropped == 0 {
		t.Fatal("no RX drops: the rings never overflowed during the hang")
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatalf("the governor never stepped (%d RX drops)", r.RxDropped)
	}
	first := evs[0]
	t.Logf("first level event %q at %v; %d RX drops", first.Name, first.At, r.RxDropped)
	if first.At >= recoverAt {
		t.Errorf("first level change %q at %v, not before the device recovered at %v (%d RX drops)",
			first.Name, first.At, recoverAt, r.RxDropped)
	}
}
