package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"nba/internal/bench"
	"nba/internal/chaos"
	"nba/internal/core"
	"nba/internal/packet"
	"nba/internal/par"
	"nba/internal/simtime"
	"nba/internal/stats"
	"nba/internal/trace"
)

// workload is one pinned input set. The three single-app workloads run one
// core.System per rep on the paper's default machine at the paper's
// saturated-throughput offered load; the sweep runs chaos cases. Why each
// was chosen is recorded beside its name in BENCHMARK.json and README.md.
type workload struct {
	name string
	// app, lb and size feed bench.AppConfig / bench.GeneratorFor. For the
	// sweep they name the traffic its tenants carry (64 B, adaptive), which
	// is what the gen and graph layer drivers then measure.
	app  string
	lb   string
	size int // 0 = synthetic-CAIDA mix
	// warmup and duration are zero for the sweep.
	warmup, duration simtime.Time
	// nCases is the number of chaos cases: non-zero for the sweep only.
	nCases int
}

const offeredBpsPerPort = 10e9 // saturates every app on the default machine

var workloads = []workload{
	{name: "ipv4-64B-cpu", app: "ipv4", lb: "cpu", size: 64,
		warmup: 2 * simtime.Millisecond, duration: 48 * simtime.Millisecond},
	{name: "ipsec-caida-alb", app: "ipsec", lb: "adaptive", size: 0,
		warmup: 2 * simtime.Millisecond, duration: 18 * simtime.Millisecond},
	{name: "ids-1024B-gpu", app: "ids", lb: "gpu", size: 1024,
		warmup: 2 * simtime.Millisecond, duration: 8 * simtime.Millisecond},
	{name: "chaos-reconfig-sweep", app: "ipv4", lb: "adaptive", size: 64, nCases: 12},
}

// shrunk returns the workload cut down by div, for the smoke test only.
func (w workload) shrunk(div int) workload {
	w.warmup /= simtime.Time(div)
	w.duration /= simtime.Time(div)
	if w.nCases > 0 {
		w.nCases = 1
	}
	return w
}

func (w workload) isSweep() bool { return w.nCases > 0 }

// runs is how many system runs one rep executes: the sweep runs every case
// twice (determinism cross-check).
func (w workload) runs() int {
	if w.isSweep() {
		return 2 * w.nCases
	}
	return 1
}

// simSeconds is the nominal virtual time one rep simulates.
func (w workload) simSeconds() float64 {
	if w.isSweep() {
		return float64(w.runs()) * chaos.CaseHorizon().Seconds()
	}
	return (w.warmup + w.duration).Seconds()
}

// pipelines returns the configuration texts the workload parses.
func (w workload) pipelines() ([]string, error) {
	apps := []string{w.app}
	if w.isSweep() {
		apps = chaos.Apps
	}
	var out []string
	for _, app := range apps {
		txt, err := bench.AppConfig(app, w.lb)
		if err != nil {
			return nil, err
		}
		out = append(out, txt)
	}
	return out, nil
}

// config is the single-app run configuration for a seed. The program sees
// only what is generated from the seed: Config.Seed and the generator.
func (w workload) config(seed uint64, tr *trace.Tracer) (core.Config, error) {
	txt, err := bench.AppConfig(w.app, w.lb)
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		GraphConfig:       txt,
		Generator:         bench.GeneratorFor(w.app, w.size, seed+1),
		OfferedBpsPerPort: offeredBpsPerPort,
		Warmup:            w.warmup,
		Duration:          w.duration,
		Seed:              seed,
		CaptureTx:         256,
		Tracer:            tr,
	}, nil
}

// sweepPlanBase pins the sweep's fault and reconfiguration timelines: case s
// always carries the plans chaos derives for seed sweepPlanBase+s, as
// `nbachaos sweep -reconfig -base 42` would. The timelines are part of the
// workload's shape, like a packet size: drawn from --seed they change how
// much work a rep is (host time by 24 %, virtual latency by 53 % across ten
// seeds) and no bound could hold. --seed feeds what a run randomises: every
// case's Config.Seed and its tenants' generators.
const sweepPlanBase = 42

// sweepSetups is how many times a sweep rep builds its plans.
const sweepSetups = 32

// sweepCases builds the cases the way chaos.Sweep does with Reconfig set
// (two rotating tenants plus one latent app per case) and validates both
// plans of each. This is the sweep's set-up work.
func (w workload) sweepCases(seed uint64) ([]chaos.Case, error) {
	apps := chaos.Apps
	cases := make([]chaos.Case, 0, w.nCases)
	for s := 0; s < w.nCases; s++ {
		mix := []string{apps[s%len(apps)], apps[(s+1)%len(apps)]}
		latent := []string{apps[(s+2)%len(apps)]}
		c := chaos.RandomReconfigCase(mix, latent, sweepPlanBase+uint64(s))
		c.Seed = seed + uint64(s)
		fp := chaos.CaseProfile(c)
		if err := c.Plan.Validate(fp.Devices, fp.Ports, fp.Queues); err != nil {
			return nil, fmt.Errorf("case %d fault plan: %w", s, err)
		}
		rp := chaos.ReconfigProfile(c.Tenants, c.Latent)
		if err := c.Reconfig.Validate(rp.Initial, rp.Latent, rp.Devices, rp.Ports); err != nil {
			return nil, fmt.Errorf("case %d reconfig plan: %w", s, err)
		}
		cases = append(cases, c)
	}
	return cases, nil
}

// runSweep runs every case twice with the determinism cross-check, as
// chaos.Sweep does, and returns the first run's outcome of each.
func runSweep(cases []chaos.Case, workers int) ([]*chaos.Outcome, error) {
	return par.MapErr(len(cases), workers, func(i int) (*chaos.Outcome, error) {
		return chaos.RunTwice(cases[i])
	})
}

// sweepOutputs folds the outcomes into one rep's outputs; the fingerprint
// covers every case's trace digest and per-tenant sub-digests.
func sweepOutputs(cases []chaos.Case, outs []*chaos.Outcome) outputs {
	var o outputs
	h := sha256.New()
	for i, out := range outs {
		fmt.Fprintf(h, "%s %d %s %v\n", cases[i].Label(), cases[i].Seed, out.Digest, out.TenantDigests)
		o.addReport(out.Report)
		o.Violations += len(out.Violations)
		o.ReconfigEvents += len(cases[i].Reconfig.Events)
	}
	o.Fingerprint = hex.EncodeToString(h.Sum(nil))
	return o
}

// outputs is everything deterministic a rep produces: the virtual-clock
// metrics, the layer counters read from the reports, and a fingerprint of
// the bytes and digests. Two reps of one seed must agree on all of it.
type outputs struct {
	Reports     int     // reports summed below: 1, or one per sweep case
	Delivered   uint64  // packets the NICs delivered
	TxGbps      float64 // mean over the reports
	Latency     stats.Hist
	Fingerprint string // sha256 of captured TX frames, or the sweep digest

	RxDropped, RxBacklogHWM   uint64
	Offloaded, Fallback, Shed uint64
	Quarantined, IntegChecks  uint64
	DevTasks                  uint64
	KernelBusy, CopyBusy      simtime.Time
	DevTime                   simtime.Time // summed device lifetimes (start to last finish)
	MaxQueueWait              simtime.Time
	FinalW                    float64
	LBUpdates                 int
	Violations                int
	ReconfigEvents            int
}

func (o *outputs) addReport(rep *core.Report) {
	o.TxGbps = (o.TxGbps*float64(o.Reports) + rep.TxGbps) / float64(o.Reports+1)
	o.Reports++
	o.Delivered += rep.RxDelivered
	o.Latency.Merge(&rep.Latency)
	o.RxDropped += rep.RxDropped
	if rep.RxBacklogHWM > o.RxBacklogHWM {
		o.RxBacklogHWM = rep.RxBacklogHWM
	}
	o.Offloaded += rep.OffloadedPackets
	o.Fallback += rep.FallbackPackets
	o.Shed += rep.ShedPackets
	o.Quarantined += rep.QuarantinedPackets
	o.IntegChecks += rep.IntegrityChecks
	for _, d := range rep.DeviceStats {
		o.DevTasks += d.Tasks
		o.KernelBusy += d.KernelBusy
		o.CopyBusy += d.CopyBusy
		o.DevTime += d.LastFinish
		if d.MaxQueueWait > o.MaxQueueWait {
			o.MaxQueueWait = d.MaxQueueWait
		}
	}
	o.FinalW = rep.FinalW
	o.LBUpdates += len(rep.LBTrace)
}

// same reports whether two reps of one seed produced identical outputs.
func (o *outputs) same(p *outputs) bool { return *o == *p }

// checkReport verifies one run's own outputs: the conservation identity,
// drained pools, and a valid IPv4 header checksum on every captured frame
// (each pipeline rewrites the header: TTL, ESP encapsulation, echo swap).
func checkReport(rep *core.Report) error {
	if out := rep.TxPackets + rep.GraphDrops + rep.ShedPackets + rep.QuarantinedPackets; rep.RxDelivered != out {
		return fmt.Errorf("conservation: delivered %d != tx+drops+shed+quarantined %d", rep.RxDelivered, out)
	}
	if rep.PoolOutstanding != 0 {
		return fmt.Errorf("%d packets outstanding after drain", rep.PoolOutstanding)
	}
	for i, c := range rep.Capture {
		if len(c.Data) < packet.EthHdrLen || packet.EthType(c.Data) != packet.EtherTypeIPv4 {
			return fmt.Errorf("captured frame %d is not IPv4", i)
		}
		if err := packet.CheckIPv4(c.Data[packet.EthHdrLen:]); err != nil {
			return fmt.Errorf("captured frame %d: %w", i, err)
		}
	}
	return nil
}

// rep is one measured repetition: host-clock samples plus the outputs.
type rep struct {
	setupS, runS   float64
	mallocs, bytes uint64
	liveHeap       uint64
	gcCycles       uint32
	gcPauseNs      uint64
	traceEvents    uint64 // events the armed tracer saw (0 when disarmed)
	out            outputs
}

// settle collects the previous rep's garbage (a system's mempools are
// ~360 MB) so the next timed section starts from the same heap.
func settle(ms *runtime.MemStats) {
	runtime.GC()
	runtime.ReadMemStats(ms)
}

// timeRun is a rep's timed section: the heap is settled and the live heap
// read, then fn runs inside a span and, when prof is non-nil, inside a CPU
// profile section, and the allocation and GC deltas over it are kept.
func (r *rep) timeRun(name string, sp *spanLog, parent int, prof func() func(), fn func() error) error {
	var before, after runtime.MemStats
	settle(&before)
	r.liveHeap = before.HeapAlloc
	stop := func() {}
	if prof != nil {
		stop = prof()
	}
	id := sp.begin(name, parent)
	t0 := time.Now()
	err := fn()
	r.runS = time.Since(t0).Seconds()
	sp.end(id)
	stop()
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	r.bytes = after.TotalAlloc - before.TotalAlloc
	r.gcCycles = after.NumGC - before.NumGC
	r.gcPauseNs = after.PauseTotalNs - before.PauseTotalNs
	return err
}

// runRep executes one repetition and verifies its outputs. prof, when
// non-nil, brackets exactly the timed Run (or runSweep) call.
func (w workload) runRep(seed uint64, tr *trace.Tracer, sp *spanLog, parent int, prof func() func()) (*rep, error) {
	if w.isSweep() {
		return w.runSweepRep(seed, sp, parent, prof)
	}
	r := &rep{}
	cfg, err := w.config(seed, tr)
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	settle(&ms)
	id := sp.begin("core.NewSystem", parent)
	t0 := time.Now()
	sys, err := core.NewSystem(cfg)
	r.setupS = time.Since(t0).Seconds()
	sp.end(id)
	if err != nil {
		return nil, err
	}
	var report *core.Report
	err = r.timeRun("core.Run", sp, parent, prof, func() (err error) {
		report, err = sys.Run()
		return err
	})
	if err != nil {
		return nil, err
	}
	id = sp.begin("verify", parent)
	defer sp.end(id)
	if err := checkReport(report); err != nil {
		return nil, err
	}
	r.traceEvents = tr.Total()
	r.out.addReport(report)
	h := sha256.New()
	for _, c := range report.Capture {
		fmt.Fprintf(h, "%d %d\n", c.Time, len(c.Data))
		h.Write(c.Data)
	}
	r.out.Fingerprint = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

func (w workload) runSweepRep(seed uint64, sp *spanLog, parent int, prof func() func()) (*rep, error) {
	r := &rep{}
	var ms runtime.MemStats
	settle(&ms)
	// Building the plans takes ~40 us, which follows the core's clock state
	// (the box flips between two, 25 % apart, every few hundred ms): a rep
	// sets up sweepSetups times and keeps the fastest.
	id := sp.begin("chaos.plans", parent)
	var cases []chaos.Case
	r.setupS = math.Inf(1)
	for i := 0; i < sweepSetups; i++ {
		t0 := time.Now()
		c, err := w.sweepCases(seed)
		r.setupS = math.Min(r.setupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, err
		}
		cases = c
	}
	sp.end(id)
	var outs []*chaos.Outcome
	err := r.timeRun("chaos.RunTwice", sp, parent, prof, func() (err error) {
		outs, err = runSweep(cases, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	id = sp.begin("verify", parent)
	defer sp.end(id)
	for i, out := range outs {
		if out.Failed() {
			return nil, fmt.Errorf("case %s/%d: %v", cases[i].Label(), cases[i].Seed, out.Violations[0])
		}
		if err := checkReport(out.Report); err != nil {
			return nil, fmt.Errorf("case %s/%d: %w", cases[i].Label(), cases[i].Seed, err)
		}
	}
	r.out = sweepOutputs(cases, outs)
	return r, nil
}
