package core

import (
	"runtime"
	"testing"
	"time"

	"nba/internal/fault"
	"nba/internal/gen"
	"nba/internal/integrity"
	"nba/internal/simtime"
	"nba/internal/trace"
)

// tracedRun runs cfg with a digest-only tracer and returns the report dump
// and the trace digest.
func tracedRun(t *testing.T, cfg Config) (string, string) {
	t.Helper()
	cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
	r := run(t, cfg)
	return goldenDump(r, ""), cfg.Tracer.Digest()
}

// TestExecutorBesideCPUPathAndSentinel runs one ipsec Stage on three paths
// at once: the adaptive balancer keeps a CPU share on the event loop, the
// sentinel re-executes every accepted aggregate there, and the device
// executor runs the offloaded share on its own goroutine, through a
// corruption window. Under -race this is the check that the per-context
// scratch sets keep them apart; the repeat run pins that none of it is
// observable in the report or the trace.
func TestExecutorBesideCPUPathAndSentinel(t *testing.T) {
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "adaptive"), 2e9, 64)
	cfg.FaultPlan = fault.Corruption(3*simtime.Millisecond, 7*simtime.Millisecond, 0, 1, 0x5a)
	cfg.Integrity = &integrity.Config{SampleRate: 1}
	r := run(t, cfg)
	if r.IntegrityChecks == 0 || r.CorruptionDetected == 0 {
		t.Fatalf("%d checks, %d mismatches; the test needs the sentinel verifying a corrupting device",
			r.IntegrityChecks, r.CorruptionDetected)
	}
	if r.OffloadedPackets == 0 || r.OffloadedPackets >= r.RxDelivered {
		t.Fatalf("%d of %d packets offloaded; the test needs both the CPU path and the device",
			r.OffloadedPackets, r.RxDelivered)
	}
	dump1, digest1 := tracedRun(t, cfg)
	dump2, digest2 := tracedRun(t, cfg)
	if dump1 != dump2 || digest1 != digest2 {
		t.Errorf("repeat run differs:\n%s %s\n%s %s", dump1, digest1, dump2, digest2)
	}
}

// TestWatchdogStopLeavesNoExecutor: a run the drain watchdog stops with
// submitted tasks never joined (a device hung for good, no rescue timeout)
// still drains and stops its executor before Run returns.
func TestWatchdogStopLeavesNoExecutor(t *testing.T) {
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
	cfg.TaskTimeout = -1
	cfg.DrainGrace = 500 * simtime.Microsecond
	cfg.FaultPlan = &fault.Plan{Events: []fault.Event{{At: 4 * simtime.Millisecond, Kind: fault.DeviceHang, Device: 0}}}
	before := runtime.NumGoroutine()
	s := newSystem(t, cfg)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	unjoined := 0
	for _, w := range s.workers {
		for _, it := range w.tasks {
			if it.seq != 0 && !it.done {
				unjoined++
			}
		}
	}
	if unjoined == 0 {
		t.Fatal("every task was joined; the test needs the watchdog to stop a run with tasks outstanding")
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines after the run, %d before: the executor outlived Run", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIDSDigestIndependentOfGOMAXPROCS: with one OS thread the executor and
// the event loop share a core, and the run reports and traces exactly what
// it does with the default thread count.
func TestIDSDigestIndependentOfGOMAXPROCS(t *testing.T) {
	cfg := quickCfg(sprintfConfig(idsLBConfigTpl, "gpu"), 3e9, 1024)
	cfg.Duration = 3 * simtime.Millisecond
	cfg.Generator = &gen.UDP4{FrameLen: 1024, Flows: 1024, Seed: 1,
		AttackFrac: 0.05, AttackPattern: []byte("/bin/sh")}
	dump, digest := tracedRun(t, cfg)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	dump1, digest1 := tracedRun(t, cfg)
	if dump1 != dump || digest1 != digest {
		t.Errorf("GOMAXPROCS=1 run differs:\n%s %s\nwant\n%s %s", dump1, digest1, dump, digest)
	}
}
