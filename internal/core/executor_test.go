package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"nba/internal/fault"
	"nba/internal/gen"
	"nba/internal/integrity"
	"nba/internal/reconfig"
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
		unjoined += len(w.dev.tasks) // a task leaves the list when its completion is handled
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

// stageChaosCfg is a tenants + reconfig + faults case in which every
// queue-state change the RX stages must survive lands between a worker
// arming its stages and polling them: rate bursts (SetRate), queue flaps
// (SetDown), ring resizes (SetCapacity) and a generator swap
// (SetGenerator), beside a tenant admit, retune and evict.
func stageChaosCfg() Config {
	ms := simtime.Millisecond
	cfg := churnCfg("ipsec")
	cfg.Reconfig.Events = append(cfg.Reconfig.Events,
		reconfig.Event{At: 3 * ms, Kind: reconfig.QueueResize, Port: -1, Capacity: 96},
		reconfig.Event{At: 5 * ms, Kind: reconfig.QueueResize, Port: 1, Capacity: 2048})
	cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
		{At: 2500 * simtime.Microsecond, Kind: fault.RateBurst, RateFactor: 3},
		{At: 3500 * simtime.Microsecond, Kind: fault.RxQueueDown, Port: 0, Queue: -1},
		{At: 4 * ms, Kind: fault.RateBurst, RateFactor: 1},
		{At: 4500 * simtime.Microsecond, Kind: fault.RxQueueUp, Port: 0, Queue: -1},
		{At: 6500 * simtime.Microsecond, Kind: fault.RxQueueDown, Port: 1, Queue: 1},
		{At: 7 * ms, Kind: fault.RxQueueUp, Port: 1, Queue: 1},
	}}
	cfg.GeneratorChanges = []GeneratorChange{
		{At: 5500 * simtime.Microsecond, Generator: &gen.SyntheticCAIDA{Flows: 512, Seed: 3}},
	}
	return cfg
}

// stageMode says how a test run's workers use their RX stages.
type stageMode int

const (
	stagesOff    stageMode = iota // no stages to arm: every poll fills its burst itself
	stagesOn                      // as in production, backing off after withdrawn jobs
	stagesAlways                  // armed after every pass that polled, no backoff
)

// capturedRun runs cfg at the given GOMAXPROCS and stage mode with every TX
// frame captured and returns the report dump, the trace digest and a digest
// of the captured frames. probe, when non-nil, is scheduled on the engine at
// each of the given times before the run starts.
func capturedRun(t *testing.T, cfg Config, procs int, mode stageMode, probeAt []simtime.Time, probe func(s *System)) (string, string, string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg.CaptureTx = math.MaxInt32
	cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
	s := newSystem(t, cfg)
	for _, w := range s.workers {
		switch mode {
		case stagesOff:
			w.stage.stages = nil
		case stagesAlways:
			w.stage.maxBackoff = 0
		}
	}
	for _, at := range probeAt {
		s.eng.At(at, func() { probe(s) })
	}
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, c := range r.Capture {
		fmt.Fprintf(h, "%d %x\n", c.Time, c.Data)
	}
	if len(r.Capture) == 0 {
		t.Fatal("no frame captured")
	}
	return goldenDump(r, ""), cfg.Tracer.Digest(), hex.EncodeToString(h.Sum(nil))
}

// stagesArmed counts the stages attached to a queue and not yet polled.
func stagesArmed(s *System) int {
	n := 0
	for _, w := range s.workers {
		for i := range w.stage.armed {
			if w.stage.stages[i].Armed() {
				n++
			}
		}
	}
	return n
}

// TestIDSDigestIndependentOfGOMAXPROCS: with one OS thread the executor and
// the event loop share a core, and a run reports, traces and transmits
// exactly what it does on two, and what it does with no RX stages at all or
// with stages armed after every pass.
// Each case keeps the executor busy its own way: IDS kernels only; ipsec kernels beside the CPU share and the RX
// stages; ipv4 on the CPU, so the executor fills RX stages only; and the
// chaos case, whose queue-state changes land between arming stages and
// polling them.
func TestIDSDigestIndependentOfGOMAXPROCS(t *testing.T) {
	ids := quickCfg(sprintfConfig(idsLBConfigTpl, "gpu"), 3e9, 1024)
	ids.Duration = 3 * simtime.Millisecond
	ids.Generator = &gen.UDP4{FrameLen: 1024, Flows: 1024, Seed: 1,
		AttackFrac: 0.05, AttackPattern: []byte("/bin/sh")}
	ipsec := quickCfg(sprintfConfig(ipsecConfigTpl, "adaptive"), 4e9, 0)
	ipsec.Generator = &gen.SyntheticCAIDA{Flows: 1024, Seed: 2}
	ipsec.Duration = 4 * simtime.Millisecond
	ipv4 := quickCfg(sprintfConfig(ipv4LBConfigTpl, "cpu"), 10e9, 64)
	ipv4.Duration = 4 * simtime.Millisecond
	chaos := stageChaosCfg()
	var changes []simtime.Time
	for _, ev := range chaos.FaultPlan.Events {
		changes = append(changes, ev.At)
	}
	for _, ev := range chaos.Reconfig.Events {
		changes = append(changes, ev.At)
	}
	for _, gc := range chaos.GeneratorChanges {
		changes = append(changes, gc.At)
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		probeAt []simtime.Time
	}{
		{"ids", ids, nil},
		{"ipsec", ipsec, nil},
		{"ipv4", ipv4, nil},
		{"chaos", chaos, changes},
	} {
		t.Run(tc.name, func(t *testing.T) {
			noProbe := func(*System) {}
			dump, digest, tx := capturedRun(t, tc.cfg, 2, stagesOff, tc.probeAt, noProbe)
			for _, run := range []struct {
				procs int
				mode  stageMode
			}{{2, stagesAlways}, {1, stagesOn}, {2, stagesOn}} {
				armed := make([]int, 0, len(tc.probeAt))
				probe := func(s *System) { armed = append(armed, stagesArmed(s)) }
				d, dg, x := capturedRun(t, tc.cfg, run.procs, run.mode, tc.probeAt, probe)
				if d != dump || dg != digest || x != tx {
					t.Errorf("GOMAXPROCS=%d, stage mode %d: the run differs from one without RX stages:\n%s %s %s\nwant\n%s %s %s",
						run.procs, run.mode, d, dg, x, dump, digest, tx)
				}
				for i, n := range armed {
					if n == 0 && run.mode == stagesAlways {
						t.Errorf("no stage armed at the change at %v", tc.probeAt[i])
					}
				}
			}
		})
	}
}
