// Command benchmark is the repository benchmark declared in BENCHMARK.json:
// four pinned workloads, measured on both clocks (host: how fast the
// simulator simulates; virtual: what the modelled NBA box delivers), with
// per-layer attribution taken from outside the program. README.md in this
// directory records why each workload and metric is there.
//
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//	go run ./benchmark [--seed N] [--seconds S] [--trace 0|1] [--json FILE]   (all workloads, in turn)
//	go run ./benchmark --compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"time"

	"nba/internal/stats"
	"nba/internal/trace"
)

// metricSpec and benchSpec mirror BENCHMARK.json, the one place metric
// names, units, directions and bounds are declared.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// values are measured metrics by name, before units are attached.
type values map[string]float64

func (v values) merge(o values) {
	for k, x := range o {
		v[k] = x
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome; its JSON is the line the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// attach pairs measured values with the declared units and insists that the
// measured set is exactly the declared set.
func attach(declared []metricSpec, v values) (map[string]metric, error) {
	out := make(map[string]metric, len(declared))
	for _, d := range declared {
		x, ok := v[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is declared in BENCHMARK.json but was not measured", d.Name)
		}
		if !nameRE.MatchString(d.Name) || d.Unit == "" {
			return nil, fmt.Errorf("metric %q: bad name or missing unit", d.Name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, x)
		}
		out[d.Name] = metric{Value: x, Unit: d.Unit}
	}
	for name := range v {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// runner measures one workload: rep 0 (cold) on cold process caches is the
// reference every later rep of the seed must reproduce, and its outputs are
// what the deterministic metrics are read from; then timed reps until the
// budget is spent.
type runner struct {
	w         workload
	seed      uint64
	cold      *rep
	reps      []*rep
	attempted int
	failed    int
	spent     time.Duration
	dead      bool // no rep has passed: nothing to measure
}

func (r *runner) fail(err error) {
	r.failed++
	fmt.Fprintf(os.Stderr, "benchmark: %s rep %d FAILED: %v\n", r.w.name, r.attempted-1, err)
}

// step runs one rep. tr and prof are nil for end-to-end reps.
func (r *runner) step(tr *trace.Tracer, sp *spanLog, prof func() func()) *rep {
	start := time.Now()
	r.attempted++
	if sp != nil {
		sp.workload, sp.rep = r.w.name, r.attempted-1
	}
	root := sp.begin("rep", 0)
	defer sp.end(root)
	p, err := r.w.runRep(r.seed, tr, sp, root, prof)
	if err == nil && r.cold != nil && !p.out.same(&r.cold.out) {
		err = fmt.Errorf("outputs differ from rep 0 of seed %d (fingerprint %.12s vs %.12s)",
			r.seed, p.out.Fingerprint, r.cold.out.Fingerprint)
	}
	if r.cold != nil {
		r.spent += time.Since(start) // rep 0 is warm-up, outside the budget
	}
	if err != nil {
		r.fail(err)
		r.dead = r.cold == nil
		return nil
	}
	if r.cold == nil {
		r.cold = p
	}
	return p
}

// timedRep runs one plain rep and keeps it for the end-to-end statistics.
func (r *runner) timedRep(sp *spanLog) {
	if p := r.step(nil, sp, nil); p != nil {
		r.reps = append(r.reps, p)
	} else if len(r.reps) == 0 {
		r.dead = true // no rep has passed yet: stop instead of spinning
	}
}

// quantile interpolates in sorted xs.
func quantile(xs []float64, q float64) float64 {
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// endToEnd computes the end-to-end metrics. Host-clock times are best-of-R
// (see README: on this kind of box no statistic of them repeats better than
// the minimum); the allocation figures are medians; the virtual figure is
// exact.
func (r *runner) endToEnd() values {
	pkts := r.pktsPerRep()
	return values{
		"sim_s_per_s":         r.w.simSeconds() / r.sorted(func(p *rep) float64 { return p.runS })[0],
		"setup_s":             r.sorted(func(p *rep) float64 { return p.setupS })[0],
		"allocs_per_pkt":      quantile(r.sorted(func(p *rep) float64 { return float64(p.mallocs) }), 0.5) / pkts,
		"alloc_bytes_per_pkt": quantile(r.sorted(func(p *rep) float64 { return float64(p.bytes) }), 0.5) / pkts,
		"live_heap_mb":        quantile(r.sorted(func(p *rep) float64 { return float64(p.liveHeap) }), 0.5) / (1 << 20),
		"virt_tx_gbps":        r.cold.out.TxGbps,
	}
}

// pktsPerRep is the number of packets one rep delivers: the reports'
// total, twice for the sweep, which runs every case two times.
func (r *runner) pktsPerRep() float64 {
	return float64(r.cold.out.Delivered) * float64(r.w.runs()) / float64(r.cold.out.Reports)
}

// perLayer runs the traced phases, after the timed reps and never mixed
// into them: CPU-profiled reps, tracer-armed reps, then the layer drivers.
func (r *runner) perLayer(budget time.Duration, sp *spanLog, outDir string) (values, error) {
	w, o := r.w, &r.cold.out
	pkts := r.pktsPerRep()
	runS := r.sorted(func(p *rep) float64 { return p.runS })
	mallocs := r.sorted(func(p *rep) float64 { return float64(p.mallocs) })
	med := quantile(runS, 0.5)
	mean := func(f func(*rep) float64) float64 {
		sum := 0.0
		for _, p := range r.reps {
			sum += f(p)
		}
		return sum / float64(len(r.reps))
	}
	// The tail percentile needs at least ten samples beyond it.
	tail := 99.9
	if o.Latency.Count() < 10000 {
		tail = 99
	}
	v := values{
		"core.host_ns_per_pkt":       runS[0] * 1e9 / pkts,
		"core.run_s.med":             med,
		"core.run_s.iqr_frac":        (quantile(runS, 0.75) - quantile(runS, 0.25)) / med,
		"core.setup_cold_s":          r.cold.setupS,
		"core.gc_cycles":             mean(func(p *rep) float64 { return float64(p.gcCycles) }),
		"core.gc_pause_ms":           mean(func(p *rep) float64 { return float64(p.gcPauseNs) / 1e6 }),
		"core.virt_lat_mean_us":      o.Latency.Mean().Micros(),
		"core.virt_lat_p50_us":       o.Latency.Percentile(50).Micros(),
		"core.virt_lat_tail_us":      o.Latency.Percentile(tail).Micros(),
		"core.virt_lat_tail_pct":     tail,
		"core.virt_lat_samples":      float64(o.Latency.Count()),
		"netio.rx_drop_frac":         ratio(float64(o.RxDropped), float64(o.RxDropped+o.Delivered)),
		"netio.rx_backlog_hwm":       float64(o.RxBacklogHWM),
		"offload.pkts_per_task":      ratio(float64(o.Offloaded), float64(o.DevTasks)),
		"gpu.tasks":                  float64(o.DevTasks),
		"gpu.kernel_util":            ratio(o.KernelBusy.Seconds(), o.DevTime.Seconds()),
		"gpu.copy_util":              ratio(o.CopyBusy.Seconds(), o.DevTime.Seconds()),
		"gpu.max_queue_wait_us":      o.MaxQueueWait.Micros(),
		"lb.final_w":                 o.FinalW,
		"lb.updates":                 float64(o.LBUpdates),
		"invariant.violations":       float64(o.Violations),
		"integrity.checks":           float64(o.IntegChecks),
		"integrity.quarantined_pkts": float64(o.Quarantined),
		"overload.shed_pkts":         float64(o.Shed),
		"fault.fallback_pkts":        float64(o.Fallback),
		"reconfig.epochs":            float64(o.ReconfigEvents),
		// Measured below where the layer runs and is reachable from outside.
		"chaos.ms_per_run":        0,
		"chaos.allocs_per_run":    0,
		"simtime.events_per_pkt":  0,
		"netio.rx_polls_per_kpkt": 0,
		"element.cycles_per_pkt":  0,
		"trace.events_per_pkt":    0,
		"trace.overhead_frac":     0,
		"par.speedup_2":           0,
	}

	// (a) CPU-profiled reps, sampled around Run (or the sweep's runs) only.
	prof := &cpuProfiler{dir: outDir, prefix: w.name}
	for start := time.Now(); time.Since(start) < budget || len(prof.files) == 0; {
		if r.step(nil, sp, prof.section) == nil {
			break
		}
	}
	fracs, err := prof.selfFractions()
	if err != nil {
		return nil, err
	}
	v.merge(fracs)

	if !w.isSweep() {
		// (b) Tracer-armed reps: three with every kind on and no ring, for
		// the overhead; one with engine dispatches masked out and a ring
		// that holds the rest, for the per-kind counts. chaos.Run owns the
		// sweep's tracer, so there these stay 0: not observable from outside.
		armed := math.Inf(1)
		var all uint64
		for i := 0; i < 3; i++ {
			if p := r.step(trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1}), sp, nil); p != nil {
				armed = math.Min(armed, p.runS)
				all = p.traceEvents
			}
		}
		tr := trace.New(trace.Options{Capacity: 1 << 19, CheckpointInterval: -1,
			Mask: trace.MaskAll &^ trace.MaskOf(trace.KindDispatch)})
		if p := r.step(tr, sp, nil); p != nil && all > 0 && tr.Dropped() == 0 {
			var polls, cycles float64
			for _, e := range tr.Events() {
				switch e.Kind {
				case trace.KindRx:
					polls++
				case trace.KindBatch:
					cycles += float64(e.B)
				}
			}
			v["simtime.events_per_pkt"] = float64(all-tr.Total()) / pkts
			v["netio.rx_polls_per_kpkt"] = polls * 1e3 / pkts
			v["element.cycles_per_pkt"] = cycles / pkts
			v["trace.events_per_pkt"] = float64(all) / pkts
			v["trace.overhead_frac"] = armed/runS[0] - 1
		}
	} else {
		v["chaos.ms_per_run"] = runS[0] * 1e3 / float64(w.runs())
		v["chaos.allocs_per_run"] = quantile(mallocs, 0.5) / float64(w.runs())
		// The par layer only carries the sweep: two workers over one.
		par2 := math.Inf(1)
		for i := 0; i < 3; i++ {
			cases, err := w.sweepCases(r.seed)
			if err != nil {
				return nil, err
			}
			id := sp.begin("chaos.RunTwice.par2", 0)
			t0 := time.Now()
			outs, err := runSweep(cases, 2)
			par2 = math.Min(par2, time.Since(t0).Seconds())
			sp.end(id)
			r.attempted++
			if err != nil {
				r.fail(err)
			} else if got := sweepOutputs(cases, outs); !got.same(&r.cold.out) {
				r.fail(fmt.Errorf("parallel sweep outputs differ from serial (fingerprint %.12s vs %.12s)", got.Fingerprint, r.cold.out.Fingerprint))
			}
		}
		v["par.speedup_2"] = runS[0] / par2
	}

	// (c) Layer drivers.
	layers, err := measureLayers(w, r.seed, sp)
	if err != nil {
		return nil, err
	}
	v.merge(layers)
	return v, nil
}

// sorted returns f over the timed reps in ascending order.
func (r *runner) sorted(f func(*rep) float64) []float64 {
	xs := make([]float64, len(r.reps))
	for i, p := range r.reps {
		xs[i] = f(p)
	}
	sort.Float64s(xs)
	return xs
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	jsonPath string
	specPath string
	outDir   string
	shrink   int // >1 only in the smoke test
}

// report is the --json file: every workload's result plus what is needed to
// compare two files.
type report struct {
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	Go         string            `json:"go"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  map[string]result `json:"workloads"`
	// Fingerprints are the per-workload output fingerprints (capture hash,
	// sweep digests); equal seeds must give equal fingerprints.
	Fingerprints map[string]string `json:"fingerprints"`
}

// run measures the selected workloads and prints the metrics. The last line
// written for each workload is its result as one JSON object.
func run(o options, stdout io.Writer) (*report, error) {
	spec, err := loadSpec(o.specPath)
	if err != nil {
		return nil, err
	}
	var runners []*runner
	for i, w := range workloads {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.name || !nameRE.MatchString(w.name) {
			return nil, fmt.Errorf("workload %d %q does not match BENCHMARK.json", i, w.name)
		}
		if o.workload == "" || o.workload == w.name {
			if o.shrink > 1 {
				w = w.shrunk(o.shrink)
			}
			runners = append(runners, &runner{w: w, seed: o.seed})
		}
	}
	if len(runners) == 0 {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	var sp *spanLog
	if o.trace {
		if err := os.MkdirAll(o.outDir, 0o755); err != nil {
			return nil, err
		}
		sp = &spanLog{t0: time.Now()}
	}
	fmt.Fprintf(stdout, "benchmark: seed %d, %.3g s per workload, trace %v, %s, GOMAXPROCS %d (simulation is single-threaded)\n",
		o.seed, o.seconds, o.trace, runtime.Version(), runtime.GOMAXPROCS(0))

	// With tracing on, the timed reps get a third of the budget and the
	// profiled reps another third.
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget /= 3
	}
	rep := &report{Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Go: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workloads: map[string]result{}, Fingerprints: map[string]string{}}
	var firstErr error
	for _, r := range runners {
		// Workloads run one after another, never interleaved: while others
		// run, the Go scavenger hands an idle workload's 360 MB of pools
		// back to the OS, and its next NewSystem pays the page faults
		// (set-up read 2x slower and 30 % apart between two sets).
		r.step(nil, sp, nil) // rep 0: cold caches, reference outputs
		for !r.dead && (r.spent < budget || len(r.reps) == 0) {
			r.timedRep(sp)
		}
		res := result{Metrics: map[string]metric{}}
		if !r.dead {
			declared, v := spec.EndToEnd, r.endToEnd()
			printVirtual(stdout, r)
			if o.trace {
				declared = spec.PerLayer
				if v, err = r.perLayer(budget, sp, o.outDir); err != nil {
					return nil, fmt.Errorf("%s: %w", r.w.name, err)
				}
			}
			if res.Metrics, err = attach(declared, v); err != nil {
				return nil, err
			}
			rep.Fingerprints[r.w.name] = r.cold.out.Fingerprint
		}
		res.Attempted, res.Failed = r.attempted, r.failed
		res.Correct = res.Failed == 0 && len(res.Metrics) > 0
		if !res.Correct && firstErr == nil {
			firstErr = fmt.Errorf("%s: %d of %d reps failed", r.w.name, res.Failed, res.Attempted)
		}
		rep.Workloads[r.w.name] = res
		for _, name := range stats.SortedKeys(res.Metrics) {
			m := res.Metrics[name]
			fmt.Fprintf(stdout, "%-22s %-28s %14.6g %s\n", r.w.name, name, m.Value, m.Unit)
		}
	}
	if sp != nil {
		self := sp.selfSeconds()
		for _, name := range stats.SortedKeys(self) {
			fmt.Fprintf(stdout, "span self time         %-28s %14.6g s\n", name, self[name])
		}
		path := filepath.Join(o.outDir, "spans.jsonl")
		if o.workload != "" {
			path = filepath.Join(o.outDir, o.workload+".spans.jsonl")
		}
		if err := sp.write(path); err != nil {
			return nil, err
		}
	}
	if o.jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(o.jsonPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	for _, r := range runners {
		line, err := json.Marshal(rep.Workloads[r.w.name])
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%s\n", line)
	}
	return rep, firstErr
}

// referenceGbps are the EXPERIMENTS.md rows the single-app workloads
// reproduce (fig12 IPv4 64 B CPU-only; fig13 IPsec CAIDA ALB). The other
// two workloads have no reference row: their model is unvalidated.
var referenceGbps = map[string]float64{"ipv4-64B-cpu": 31.1, "ipsec-caida-alb": 21.2}

// printVirtual states the virtual-clock results beside their reference.
func printVirtual(w io.Writer, r *runner) {
	o := &r.cold.out
	fmt.Fprintf(w, "%-22s %d timed reps, %d delivered pkts/rep, fingerprint %.16s\n",
		r.w.name, len(r.reps), o.Delivered, r.cold.out.Fingerprint)
	if ref, ok := referenceGbps[r.w.name]; ok {
		fmt.Fprintf(w, "%-22s virtual %.2f Gbps vs EXPERIMENTS.md %.1f Gbps (error %+.2f%%)\n",
			r.w.name, o.TxGbps, ref, 100*(o.TxGbps-ref)/ref)
	} else {
		fmt.Fprintf(w, "%-22s virtual %.2f Gbps, no reference row (unvalidated)\n", r.w.name, o.TxGbps)
	}
}

func main() {
	var o options
	var traceFlag int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: all, one after another)")
	flag.Uint64Var(&o.seed, "seed", 42, "workload seed: feeds the generators (seed+1), Config.Seed and the sweep's BaseSeed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measuring time per workload")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.jsonPath, "json", "", "also write every workload's result to this file")
	flag.BoolVar(&compare, "compare", false, "compare two --json files: --compare A.json B.json")
	flag.Parse()
	o.trace = traceFlag != 0
	o.specPath = "BENCHMARK.json"
	o.outDir = filepath.Join("benchmark", "out")

	var err error
	if compare {
		if flag.NArg() != 2 {
			err = fmt.Errorf("--compare takes two files")
		} else {
			err = compareFiles(o.specPath, flag.Arg(0), flag.Arg(1), os.Stdout)
		}
	} else {
		_, err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
