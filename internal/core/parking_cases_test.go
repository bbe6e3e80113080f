package core_test

import (
	"fmt"
	"slices"
	"testing"

	"nba/internal/bench"
	"nba/internal/core"
	"nba/internal/fault"
	"nba/internal/overload"
	"nba/internal/reconfig"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

const us = simtime.Microsecond

// appCfg is a short run of a sample app on a one-socket machine with the
// given workers and two ports.
func appCfg(t *testing.T, app, lb string, size, workers int, bpsPerPort float64) core.Config {
	t.Helper()
	cfg, err := bench.AppRun(app, lb, size, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Topology = sysinfo.SingleSocketTopology(workers+1, 2)
	cfg.WorkersPerSocket = workers
	cfg.OfferedBpsPerPort = bpsPerPort
	cfg.Warmup, cfg.Duration = 500*us, 2500*us
	return cfg
}

// firedBoth runs cfg with parking on and off and returns the engine events
// each side fired.
func firedBoth(t *testing.T, cfg core.Config) (on, off uint64) {
	t.Helper()
	for _, parking := range []bool{true, false} {
		restore := core.SetParking(parking)
		fired := runCfg(t, cfg).Engine().Fired
		restore()
		if parking {
			on = fired
		} else {
			off = fired
		}
	}
	return on, off
}

// TestParkingWakeSources runs one case per way a parked worker's next pass
// can come to differ from its last: the report and the dispatch-free trace
// must agree with the polling run, and parking must have skipped passes.
func TestParkingWakeSources(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) core.Config
	}{
		// Held back by the task cap alone: only its own completion frees it.
		{"completion", func(t *testing.T) core.Config {
			cfg := appCfg(t, "ids", "gpu", 1024, 1, 10e9)
			cfg.MaxInflightTasks = 1
			return cfg
		}},
		// A two-task device queue and no backlog bound: a worker is held
		// back by its peers' tasks and freed when one of them finishes.
		{"saturation-lifted-by-peer", func(t *testing.T) core.Config {
			cfg := appCfg(t, "ipsec", "gpu", 1024, 3, 5e9)
			cfg.Overload = &overload.Config{CoDelInterval: 100 * us, DeviceQueueDepth: 2}
			cm := *sysinfo.Default()
			cm.MaxDeviceBacklog = 0
			cfg.CostModel = &cm
			return cfg
		}},
		// The default shape of the ids benchmark: the device backlog bound
		// holds every worker back until the backlog decays.
		{"backlog-decay", func(t *testing.T) core.Config {
			return appCfg(t, "ids", "gpu", 1024, 3, 10e9)
		}},
		// One task out per worker at a load that leaves aggregates partial:
		// they expire while the worker is held back, and the overload
		// governor halves their age when the RX rings overflow.
		{"aggregate-expiry-and-governor", func(t *testing.T) core.Config {
			cfg := appCfg(t, "ipsec", "gpu", 1024, 2, 4e9)
			cfg.MaxInflightTasks = 1
			cfg.Overload = &overload.Config{CoDelInterval: 100 * us}
			cm := *sysinfo.Default()
			cm.MaxAggBatches = 64
			cfg.CostModel = &cm
			return cfg
		}},
		// A hung device with the watchdog off fills its two-task queue:
		// nothing completes, and the full queue trims the aggregation age,
		// so only the governor's wake tells a parked worker its aggregate
		// has expired.
		{"governor-trim-during-hang", func(t *testing.T) core.Config {
			cfg := appCfg(t, "ipsec", "gpu", 1024, 2, 4e9)
			cfg.TaskTimeout = -1
			cfg.Overload = &overload.Config{CoDelInterval: 100 * us, DeviceQueueDepth: 2}
			cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
				{At: 400 * us, Kind: fault.DeviceHang},
				{At: 2 * simtime.Millisecond, Kind: fault.DeviceRecover},
			}}
			return cfg
		}},
		// A hang with the stall watchdog armed: the parked workers wake at
		// its deadline and hand the queue back.
		{"watchdog-deadline", func(t *testing.T) core.Config {
			cfg := appCfg(t, "ids", "gpu", 1024, 2, 10e9)
			cfg.TaskTimeout = 300 * us
			cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
				{At: 1 * simtime.Millisecond, Kind: fault.DeviceHang},
				{At: 2500 * us, Kind: fault.DeviceRecover},
			}}
			return cfg
		}},
		// A hang with the watchdog off and nothing to wake anyone: the run
		// ends at the DrainGrace watchdog's stop, as the polling run does.
		{"hang-without-watchdog", func(t *testing.T) core.Config {
			cfg := appCfg(t, "ids", "gpu", 1024, 2, 10e9)
			cfg.TaskTimeout = -1
			cfg.DrainGrace = 500 * us
			cfg.FaultPlan = &fault.Plan{Events: []fault.Event{
				{At: 1500 * us, Kind: fault.DeviceHang},
			}}
			return cfg
		}},
		{"device-fail-and-recover", func(t *testing.T) core.Config {
			cfg := appCfg(t, "ids", "gpu", 1024, 2, 10e9)
			cfg.FaultPlan = fault.GPUOutage(1*simtime.Millisecond, 1700*us, 0)
			return cfg
		}},
		{"device-unplug-and-plug", func(t *testing.T) core.Config {
			cfg := appCfg(t, "ids", "gpu", 1024, 2, 10e9)
			tn, err := bench.AppTenant("ids", "ids", "gpu", 1024, 8)
			if err != nil {
				t.Fatal(err)
			}
			cfg.GraphConfig, cfg.Generator = "", nil
			cfg.Tenants = []core.Tenant{tn}
			cfg.Reconfig = &reconfig.Plan{Events: []reconfig.Event{
				{At: 1 * simtime.Millisecond, Kind: reconfig.DeviceUnplug},
				{At: 2 * simtime.Millisecond, Kind: reconfig.DevicePlug},
			}}
			return cfg
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := c.cfg(t)
			agree(t, false, func() { runCfg(t, cfg) })
			if on, off := firedBoth(t, cfg); on >= off {
				t.Errorf("parked run fired %d events, polling run %d: nothing parked", on, off)
			}
		})
	}
}

// clockProbes schedules reads of every worker's clock at times that are
// not on the workers' grids, and at multiples of 29 µs, which are on
// worker 0's grid while it has never worked, so a tie with a skipped pass
// happens too.
func clockProbes(sys *core.System, workers int, horizon simtime.Time, out *[]string) {
	eng := sys.Engine()
	for at := simtime.Time(0); at < horizon; at += 2900 * simtime.Nanosecond {
		eng.At(at, func() {
			for i := range workers {
				start, now, _ := core.WorkerClock(sys, i)
				*out = append(*out, fmt.Sprintf("%d w%d %d %d", int64(at), i, int64(start), int64(now)))
			}
		})
	}
}

// TestParkedClockReadsAsSkippedPass reads each worker's clock between
// passes, as a callback outside a pass does, through an admit, retune and
// evict churn whose evict epoch rescues work mid-park: every read must
// match the polling run's.
func TestParkedClockReadsAsSkippedPass(t *testing.T) {
	cfg := core.ChurnCfg("ids")
	cfg.Tenants[0].GraphConfig = mustAppConfig(t, "ids", "gpu")
	cfg.LatentTenants[0].GraphConfig = mustAppConfig(t, "ids", "gpu")
	cfg.DrainGrace = 50 * us // the evict epoch force-rescues its lanes
	var reads [][]string
	var rescued uint64
	agree(t, false, func() {
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		clockProbes(sys, 3, cfg.Warmup+cfg.Duration+simtime.Millisecond, &out)
		r, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		reads = append(reads, out)
		rescued = r.TimedOutTasks
	})
	if rescued == 0 {
		t.Fatal("the evict epoch rescued no task: the case lost its point")
	}
	if len(reads[0]) == 0 || !slices.Equal(reads[0], reads[1]) {
		for i := range min(len(reads[0]), len(reads[1])) {
			if reads[0][i] != reads[1][i] {
				t.Fatalf("clock read %d: parked %s, polling %s", i, reads[0][i], reads[1][i])
			}
		}
		t.Fatalf("%d clock reads parked, %d polling", len(reads[0]), len(reads[1]))
	}
}

func mustAppConfig(t *testing.T, app, lb string) string {
	t.Helper()
	txt, err := bench.AppConfig(app, lb)
	if err != nil {
		t.Fatal(err)
	}
	return txt
}

// TestParkedWakeOrdersLikeSkippedPass forces events onto the grid point of
// a parked worker's skipped pass. A device hang voids the backlog that
// holds the worker back (the task cap is out of reach), so the pass on the
// grid point polls if it comes after the hang. A hang scheduled before the
// pass ahead of it ran must be seen by the pass on the grid point; one
// scheduled after must not. A clock read at the tie, just before the hang,
// must see the skipped pass there run or not run the same way. Everything
// must agree with the polling run.
func TestParkedWakeOrdersLikeSkippedPass(t *testing.T) {
	cfg := appCfg(t, "ids", "gpu", 1024, 2, 10e9)
	cfg.MaxInflightTasks = 64
	const idle = simtime.Microsecond
	var parkedTies [2]int
	var reads [][]string
	agree(t, false, func() {
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := sys.Engine()
		var out []string
		hang := func() {
			start, now, _ := core.WorkerClock(sys, 0)
			out = append(out, fmt.Sprintf("%d %d %d", int64(eng.Now()), int64(start), int64(now)))
			core.ApplyFault(sys, fault.Event{Kind: fault.DeviceHang})
		}
		recover := func() { core.ApplyFault(sys, fault.Event{Kind: fault.DeviceRecover}) }
		n := 0
		for at := 800 * us; at < cfg.Warmup+cfg.Duration; at += 23300 * simtime.Nanosecond {
			kind := n % 2
			n++
			eng.At(at, func() {
				start, _, parked := core.WorkerClock(sys, 0)
				// Kind 0 lands two grid points on: scheduled before the pass
				// one grid point on ran, so the pass there comes after it.
				// Kind 1 lands one grid point on, after the pass that
				// scheduled that pass, so the pass comes first.
				tie := start + idle*simtime.Time(2-kind)
				if tie <= eng.Now() {
					return // worker 0 is mid-work: no grid to tie with
				}
				if parked {
					parkedTies[kind]++
				}
				eng.At(tie, hang)
				eng.At(tie+5*us, recover)
			})
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
		reads = append(reads, out)
	})
	t.Logf("ties on a parked worker's grid: %v", parkedTies)
	if parkedTies[0] == 0 || parkedTies[1] == 0 {
		t.Fatalf("ties on a parked worker's grid: %v, want some of each kind", parkedTies)
	}
	if !slices.Equal(reads[0], reads[1]) {
		t.Errorf("clock reads at the ties differ:\nparked  %v\npolling %v", reads[0], reads[1])
	}
}

// TestParkedDeadlineWakeOrdersLikeSkippedPass forces an event onto the
// grid point where a parked worker's deadline wake fires (with the task cap
// out of reach, mostly the device backlog decaying to MaxDeviceBacklog).
// The event takes the worker's RX queues down; it is scheduled before the
// skipped pass one grid point earlier, so the pass on the grid point must
// come after it and find nothing to poll, as the polling run's does.
func TestParkedDeadlineWakeOrdersLikeSkippedPass(t *testing.T) {
	cfg := appCfg(t, "ids", "gpu", 1024, 2, 10e9)
	cfg.MaxInflightTasks = 64
	const idle = simtime.Microsecond
	ties := 0
	agree(t, false, func() {
		sys, err := core.NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng := sys.Engine()
		queues := func(kind fault.Kind) func() {
			return func() {
				for port := range 2 {
					core.ApplyFault(sys, fault.Event{Kind: kind, Port: port, Queue: 0})
				}
			}
		}
		for at := 800 * us; at < cfg.Warmup+cfg.Duration; at += 37300 * simtime.Nanosecond {
			eng.At(at, func() {
				start, _, parked := core.WorkerClock(sys, 0)
				deadline, ok := core.ParkDeadline(sys, 0)
				if !ok {
					return
				}
				tie := start + (deadline-start+idle-1)/idle*idle
				if tie-idle <= eng.Now() {
					return // the pass before the tie is already scheduled
				}
				if parked && core.WorkerWake(sys, 0) == tie {
					ties++
				}
				eng.At(tie, queues(fault.RxQueueDown))
				eng.At(tie+30*us, queues(fault.RxQueueUp))
			})
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("events on a parked worker's deadline wake: %d", ties)
	if ties == 0 {
		t.Fatal("no event landed on a parked worker's deadline wake")
	}
}

// TestParkedWorkerRetiresAtStop: worker 1 is held back by worker 0's
// tasks on a hung, two-task device queue, with no task of its own out. It
// can retire once arrivals stop and its RX queues hold nothing it must
// poll, and must do so at the same pass as the polling worker, though no
// device event comes: the hang outlasts the run and the watchdog is off,
// so the DrainGrace watchdog ends the run with worker 0 stuck. Either its
// queues are down all along (the stopTime deadline wakes it), or they
// come up with a backlog before the stop and go down after it (the fault
// event wakes it).
func TestParkedWorkerRetiresAtStop(t *testing.T) {
	down := func(at simtime.Time, kind fault.Kind) []fault.Event {
		return []fault.Event{{At: at, Kind: kind, Port: 0, Queue: 1}, {At: at, Kind: kind, Port: 1, Queue: 1}}
	}
	for _, c := range []struct {
		name   string
		events []fault.Event
	}{
		{"queues-down-throughout", down(0, fault.RxQueueDown)},
		{"queues-down-after-stop", slices.Concat(down(0, fault.RxQueueDown),
			down(1900*us, fault.RxQueueUp), down(3200*us, fault.RxQueueDown))},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := appCfg(t, "ipsec", "gpu", 1024, 2, 5e9)
			cfg.TaskTimeout = -1
			cfg.DrainGrace = 500 * us
			cfg.Overload = &overload.Config{CoDelInterval: 100 * us, DeviceQueueDepth: 2}
			cm := *sysinfo.Default()
			cm.MaxDeviceBacklog = 0
			cfg.CostModel = &cm
			cfg.FaultPlan = &fault.Plan{Events: append(c.events,
				fault.Event{At: 1500 * us, Kind: fault.DeviceHang})}
			var stopped []string
			agree(t, false, func() {
				sys := runCfg(t, cfg)
				stopped = append(stopped, fmt.Sprint(core.WorkerStopped(sys, 0), core.WorkerStopped(sys, 1)))
			})
			if stopped[0] != "false true" || stopped[1] != stopped[0] {
				t.Errorf("workers stopped (0, 1): parked %s, polling %s; want false true", stopped[0], stopped[1])
			}
		})
	}
}

// TestIDSGPUEventsPerPacket pins the engine events per delivered packet of
// the GPU-only ids benchmark run (1024 B frames, the default machine,
// 10 Gbps per port, 2 ms warm-up, 8 ms measured): parking leaves well under
// one event per ten packets, where a busy-polling loop fired 2.8.
func TestIDSGPUEventsPerPacket(t *testing.T) {
	cfg, err := bench.AppRun("ids", "gpu", 1024, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OfferedBpsPerPort = 10e9
	cfg.Warmup, cfg.Duration = 2*simtime.Millisecond, 8*simtime.Millisecond
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	perPkt := float64(sys.Engine().Fired) / float64(r.RxDelivered)
	t.Logf("%.4f engine events per delivered packet", perPkt)
	if perPkt > 0.1 {
		t.Errorf("%.3f engine events per delivered packet (%d events, %d packets), want <= 0.1",
			perPkt, sys.Engine().Fired, r.RxDelivered)
	}
}
