package bench

import (
	"fmt"
	"io"

	"nba/internal/core"
	"nba/internal/graph"
	"nba/internal/par"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

const offeredPerPort = 10e9 // the paper offers 80 Gbps over 8 ports

// appRun is AppRun at the experiment's seed, offered load and window. The
// experiments name their apps with literals, so an error here is a typo in
// this package.
func (o Options) appRun(app, lbAlg string, size int, bps float64, warm, dur simtime.Time) core.Config {
	cfg, err := AppRun(app, lbAlg, size, o.Seed)
	if err != nil {
		panic(err)
	}
	cfg.OfferedBpsPerPort, cfg.Warmup, cfg.Duration = bps, warm, dur
	return cfg
}

// runGrid executes independent runs at the Options parallelism and returns
// the reports in slot order, so callers print rows in grid order and the
// experiment output is byte-identical at any worker count.
func runGrid(o Options, grid []core.Config) ([]*core.Report, error) {
	return par.MapErr(len(grid), o.workers(), func(i int) (*core.Report, error) {
		return Run(grid[i])
	})
}

func init() {
	register(Experiment{
		ID:    "fig1",
		Title: "Throughput drop by batch splitting (no branch prediction)",
		Paper: "splitting into new batches degrades throughput up to ~40% vs a branch-free baseline",
		Run:   runFig1,
	})
	register(Experiment{
		ID:    "fig2",
		Title: "IPsec throughput vs offloading fraction (synthetic-CAIDA trace)",
		Paper: "maximum at ~80% offloading: +20% vs GPU-only, +40% vs CPU-only",
		Run:   runFig2,
	})
	register(Experiment{
		ID:    "composition",
		Title: "Composition overhead: latency of a linear no-op pipeline (sec 4.2)",
		Paper: "baseline ~16.1 us; ~+1 us per 9 no-op elements at 1 Gbps",
		Run:   runComposition,
	})
	register(Experiment{
		ID:    "fig9",
		Title: "Computation batching: throughput vs computation batch size",
		Paper: "batch 64 vs 1: 1.7-5.2x at 64 B; ~10% for IPsec 1500 B",
		Run:   runFig9,
	})
	register(Experiment{
		ID:    "fig10",
		Title: "Branch prediction benefit vs batch splitting",
		Paper: "masking limits degradation to ~10% when 99% of packets stay",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Multi-core scalability (CPU-only and GPU-only)",
		Paper: "near-linear CPU scaling; GPU-only bends from device-thread overhead",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Throughput vs packet size, CPU-only vs GPU-only",
		Paper: "IPv4: CPU wins 0-37%; IPv6: GPU wins 0-75%; IPsec crossover ~256 B; IDS: GPU 6-47x",
		Run:   runFig12,
	})
	register(Experiment{
		ID:    "fig13",
		Title: "Adaptive load balancing vs manual tuning",
		Paper: "ALB achieves >=92% of the manually-tuned optimum in all cases",
		Run:   runFig13,
	})
	register(Experiment{
		ID:    "fig14",
		Title: "Latency distributions (CPU-only and GPU-only)",
		Paper: "L2fwd p99.9 < 43 us; IPv4/IPv6 < 60 us; IPsec < 250 us; GPU 8-14x higher",
		Run:   runFig14,
	})
}

// --- Figures 1 and 10: batch splitting and branch prediction ---

func branchConfig(minority float64) string {
	return fmt.Sprintf(`
		b :: RandomWeightedBranch("%.3f");
		FromInput() -> b;
		b[0] -> EchoBack() -> ToOutput();
		b[1] -> EchoBack() -> ToOutput();
	`, minority)
}

func runBranchSweep(o Options, w io.Writer, includeMask bool) error {
	warm, dur := o.durations(5*simtime.Millisecond, 20*simtime.Millisecond)
	pcts := []int{50, 40, 30, 20, 10, 5, 1}
	jobs := []core.Config{o.appRun("echo", "cpu", 64, offeredPerPort, warm, dur)} // slot 0: branch-free baseline
	for _, pct := range pcts {
		opts := []graph.Options{{BranchPrediction: false, OffloadChaining: true}}
		if includeMask {
			opts = append(opts, graph.DefaultOptions())
		}
		for i := range opts {
			cfg := o.appRun("echo", "cpu", 64, offeredPerPort, warm, dur)
			cfg.GraphConfig, cfg.GraphOpts = branchConfig(float64(pct)/100), &opts[i]
			jobs = append(jobs, cfg)
		}
	}
	reps, err := runGrid(o, jobs)
	if err != nil {
		return err
	}
	baseline := reps[0]
	stride := 1
	if includeMask {
		stride = 2
		fmt.Fprintf(w, "%-22s %-10s %-10s %-10s\n", "minority(%)", "split", "masked", "baseline")
	} else {
		fmt.Fprintf(w, "%-22s %-10s %-10s\n", "minority(%)", "split", "baseline")
	}
	for i, pct := range pcts {
		rSplit := reps[1+i*stride]
		if includeMask {
			rMask := reps[2+i*stride]
			fmt.Fprintf(w, "%-22d %s %s %s\n", pct,
				gbpsCell(rSplit.TxGbps), gbpsCell(rMask.TxGbps), gbpsCell(baseline.TxGbps))
		} else {
			fmt.Fprintf(w, "%-22d %s %s\n", pct, gbpsCell(rSplit.TxGbps), gbpsCell(baseline.TxGbps))
		}
	}
	return nil
}

func runFig1(o Options, w io.Writer) error  { return runBranchSweep(o, w, false) }
func runFig10(o Options, w io.Writer) error { return runBranchSweep(o, w, true) }

// --- Figure 2: offload fraction sweep ---

func runFig2(o Options, w io.Writer) error {
	warm, dur := o.durations(5*simtime.Millisecond, 25*simtime.Millisecond)
	var jobs []core.Config
	var fracs []int
	for frac := 0; frac <= 100; frac += 10 {
		fracs = append(fracs, frac)
		jobs = append(jobs, o.appRun("ipsec", fmt.Sprintf("fixed=%.2f", float64(frac)/100),
			-1, offeredPerPort, warm, dur))
	}
	reps, err := runGrid(o, jobs)
	if err != nil {
		return err
	}
	gpuOnly := reps[len(reps)-1].TxGbps
	fmt.Fprintf(w, "%-22s %-12s %-16s\n", "offload fraction(%)", "Gbps", "vs GPU-only(%)")
	for i, frac := range fracs {
		rel := (reps[i].TxGbps/gpuOnly - 1) * 100
		fmt.Fprintf(w, "%-22d %s      %+7.1f\n", frac, gbpsCell(reps[i].TxGbps), rel)
	}
	return nil
}

// --- Section 4.2: composition overhead ---

func runComposition(o Options, w io.Writer) error {
	warm, dur := o.durations(5*simtime.Millisecond, 25*simtime.Millisecond)
	var jobs []core.Config
	var ks []int
	for k := 0; k <= 27; k += 3 {
		cfg := o.appRun("echo", "", 64, 1e9/8, warm, dur) // 1 Gbps total
		cfg.GraphConfig = "FromInput() "
		for i := 0; i < k; i++ {
			cfg.GraphConfig += "-> NoOp() "
		}
		cfg.GraphConfig += "-> EchoBack() -> ToOutput();"
		ks = append(ks, k)
		jobs = append(jobs, cfg)
	}
	reps, err := runGrid(o, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-14s %-14s\n", "no-ops", "avg lat(us)", "p99.9(us)")
	for i, k := range ks {
		fmt.Fprintf(w, "%-12d %-14.2f %-14.2f\n", k,
			reps[i].Latency.Mean().Micros(), reps[i].Latency.Percentile(99.9).Micros())
	}
	return nil
}

// --- Figure 9: computation batching ---

func runFig9(o Options, w io.Writer) error {
	warm, dur := o.durations(5*simtime.Millisecond, 20*simtime.Millisecond)
	cases := []struct {
		app  string
		size int
	}{
		{"ipv4", 64}, {"ipv6", 64}, {"ipsec", 64}, {"ipsec", 1500},
	}
	batches := []int{1, 32, 64}
	var jobs []core.Config
	for _, c := range cases {
		for _, bs := range batches {
			cfg := o.appRun(c.app, "cpu", c.size, offeredPerPort, warm, dur)
			cfg.CompBatchSize = bs
			jobs = append(jobs, cfg)
		}
	}
	reps, err := runGrid(o, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-10s %-10s %-10s %-8s\n", "app,size", "batch=1", "batch=32", "batch=64", "gain")
	for i, c := range cases {
		row := reps[i*len(batches) : (i+1)*len(batches)]
		fmt.Fprintf(w, "%-16s %s %s %s %7.2fx\n", fmt.Sprintf("%s,%dB", c.app, c.size),
			gbpsCell(row[0].TxGbps), gbpsCell(row[1].TxGbps), gbpsCell(row[2].TxGbps),
			row[2].TxGbps/row[0].TxGbps)
	}
	return nil
}

// --- Figure 11: multi-core scalability ---

func runFig11(o Options, w io.Writer) error {
	warm, dur := o.durations(5*simtime.Millisecond, 20*simtime.Millisecond)
	apps, modes, workerCounts := []string{"ipv4", "ipv6", "ipsec"}, []string{"cpu", "gpu"}, []int{1, 2, 4, 7}
	var jobs []core.Config
	for _, app := range apps {
		for _, mode := range modes {
			for _, workers := range workerCounts {
				cfg := o.appRun(app, mode, 64, offeredPerPort, warm, dur)
				cfg.WorkersPerSocket = workers
				jobs = append(jobs, cfg)
			}
		}
	}
	reps, err := runGrid(o, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-8s %-10s %-10s %-10s %-10s\n",
		"app", "mode", "w=1", "w=2", "w=4", "w=7")
	slot := 0
	for _, app := range apps {
		for _, mode := range modes {
			row := fmt.Sprintf("%-10s %-8s", app, mode)
			for range workerCounts {
				row += " " + gbpsCell(reps[slot].TxGbps) + "  "
				slot++
			}
			fmt.Fprintln(w, row)
		}
	}
	return nil
}

// --- Figure 12: packet-size sweep ---

var fig12Sizes = []int{64, 128, 256, 512, 1024, 1500}

func runFig12(o Options, w io.Writer) error {
	warm, dur := o.durations(5*simtime.Millisecond, 20*simtime.Millisecond)
	apps, modes := []string{"ipv4", "ipv6", "ipsec", "ids"}, []string{"cpu", "gpu"}
	var jobs []core.Config
	for _, app := range apps {
		for _, mode := range modes {
			for _, size := range fig12Sizes {
				jobs = append(jobs, o.appRun(app, mode, size, offeredPerPort, warm, dur))
			}
		}
	}
	reps, err := runGrid(o, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-10s %-8s", "app", "mode")
	for _, s := range fig12Sizes {
		fmt.Fprintf(w, " %7dB ", s)
	}
	fmt.Fprintln(w)
	slot := 0
	for _, app := range apps {
		for _, mode := range modes {
			fmt.Fprintf(w, "%-10s %-8s", app, mode)
			for range fig12Sizes {
				fmt.Fprintf(w, " %s  ", gbpsCell(reps[slot].TxGbps))
				slot++
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// --- Figure 13: adaptive load balancing ---

type fig13Case struct {
	app  string
	size int // <=0: CAIDA
	name string
}

var fig13Cases = []fig13Case{
	{"ipv4", 64, "IPv4,64B"},
	{"ipv6", 64, "IPv6,64B"},
	{"ipsec", 64, "IPsec,64B"},
	{"ipsec", 256, "IPsec,256B"},
	{"ipsec", 512, "IPsec,512B"},
	{"ipsec", 1024, "IPsec,1024B"},
	{"ids", 64, "IDS,64B"},
	{"ipsec", -1, "IPsec,CAIDA"},
}

func runFig13(o Options, w io.Writer) error {
	// The sweep runs keep full-length warmup even in Quick mode so that the
	// GPU pipeline (~1 ms deep) reaches steady state before measuring.
	warm, dur := 4*simtime.Millisecond, 12*simtime.Millisecond
	albWarm, albDur := 5*simtime.Millisecond, 300*simtime.Millisecond
	if o.Quick {
		dur = 8 * simtime.Millisecond
		albDur = 100 * simtime.Millisecond
	}
	// Per case: the 11-point manual offload-fraction sweep plus one ALB run,
	// flattened into a single grid (8 x 12 independent simulations).
	const fracsPerCase = 11
	const perCase = fracsPerCase + 1
	var jobs []core.Config
	for _, c := range fig13Cases {
		for frac := 0; frac <= 100; frac += 10 {
			jobs = append(jobs, o.appRun(c.app, fmt.Sprintf("fixed=%.2f", float64(frac)/100),
				c.size, offeredPerPort, warm, dur))
		}
		alb := o.appRun(c.app, "adaptive", c.size, offeredPerPort, albWarm, albDur)
		alb.ALBObserve = 250 * simtime.Microsecond
		alb.ALBUpdate = 1 * simtime.Millisecond
		alb.LatencySample = 64
		jobs = append(jobs, alb)
	}
	reps, err := runGrid(o, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-9s %-9s %-9s %-9s %-9s %-8s\n",
		"case", "cpu", "gpu", "manual", "ALB", "ALB/man%", "finalW")
	for ci, c := range fig13Cases {
		row := reps[ci*perCase : (ci+1)*perCase]
		manual := 0.0
		for _, r := range row[:fracsPerCase] {
			if r.TxGbps > manual {
				manual = r.TxGbps
			}
		}
		cpuG, gpuG := row[0].TxGbps, row[fracsPerCase-1].TxGbps
		r := row[fracsPerCase]
		// Judge ALB by its converged tail, not the convergence transient.
		albG := r.TailGbps
		if albG == 0 {
			albG = r.TxGbps
		}
		fmt.Fprintf(w, "%-14s %8.2f %8.2f %8.2f %8.2f %8.1f %7.2f\n",
			c.name, cpuG, gpuG, manual, albG, albG/manual*100, r.FinalW)
	}
	return nil
}

// --- Figure 14: latency distributions ---

func runFig14(o Options, w io.Writer) error {
	warm, dur := o.durations(5*simtime.Millisecond, 40*simtime.Millisecond)
	type cfg struct {
		name string
		app  string
		size int
		mode string
		bps  float64 // total offered
	}
	cases := []cfg{
		{"L2fwd,64B cpu", "l2fwd", 64, "cpu", 10e9},
		{"IPv4,64B cpu", "ipv4", 64, "cpu", 10e9},
		{"IPv6,64B cpu", "ipv6", 64, "cpu", 10e9},
		{"IPsec,64B cpu", "ipsec", 64, "cpu", 3e9},
		{"IPsec,1024B cpu", "ipsec", 1024, "cpu", 3e9},
		{"IPv4,64B gpu", "ipv4", 64, "gpu", 10e9},
		{"IPv6,64B gpu", "ipv6", 64, "gpu", 10e9},
		{"IPsec,64B gpu", "ipsec", 64, "gpu", 3e9},
		{"IPsec,1024B gpu", "ipsec", 1024, "gpu", 3e9},
	}
	var jobs []core.Config
	for _, c := range cases {
		jobs = append(jobs, o.appRun(c.app, c.mode, c.size, c.bps/8, warm, dur))
	}
	reps, err := runGrid(o, jobs)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-18s %9s %9s %9s %9s %9s\n", "config", "min(us)", "avg(us)", "p50(us)", "p99(us)", "p99.9(us)")
	for i, c := range cases {
		h := &reps[i].Latency
		fmt.Fprintf(w, "%-18s %9.1f %9.1f %9.1f %9.1f %9.1f\n", c.name,
			h.Min().Micros(), h.Mean().Micros(),
			h.Percentile(50).Micros(), h.Percentile(99).Micros(), h.Percentile(99.9).Micros())
	}
	return nil
}

// cloneCostModel deep-copies the default cost model for per-run overrides.
func cloneCostModel() *sysinfo.CostModel {
	m := *sysinfo.Default()
	return &m
}

func init() {
	register(Experiment{
		ID:    "alb-reconverge",
		Title: "ALB re-convergence after a workload change (sec 3.4)",
		Paper: "continuous perturbations let w find a new convergence point when the workload changes",
		Run:   runALBReconverge,
	})
}

// runALBReconverge starts with 64 B IPsec traffic (GPU-favoured, W should
// climb) and switches to 1024 B mid-run (CPU-favoured, W should fall),
// printing the controller's W trajectory around the change.
func runALBReconverge(o Options, w io.Writer) error {
	warm := 5 * simtime.Millisecond
	phase := 150 * simtime.Millisecond
	if o.Quick {
		phase = 60 * simtime.Millisecond
	}
	cfg := o.appRun("ipsec", "adaptive", 64, offeredPerPort, warm, 2*phase)
	cfg.ALBObserve, cfg.ALBUpdate = 250*simtime.Microsecond, simtime.Millisecond
	cfg.LatencySample = 64
	cfg.GeneratorChanges = []core.GeneratorChange{
		{At: warm + phase, Generator: GeneratorFor("ipsec", 1024, o.Seed+1)},
	}
	r, err := Run(cfg)
	if err != nil {
		return err
	}
	n := len(r.LBTrace)
	if n == 0 {
		return fmt.Errorf("alb-reconverge: no controller trace")
	}
	fmt.Fprintf(w, "phase 1: IPsec 64B (GPU-favoured)   phase 2: IPsec 1024B (CPU-favoured)\n")
	fmt.Fprintf(w, "%-10s %-8s\n", "move#", "W")
	step := n / 20
	if step == 0 {
		step = 1
	}
	for i := 0; i < n; i += step {
		fmt.Fprintf(w, "%-10d %-8.2f\n", i, r.LBTrace[i].W)
	}
	peak := 0.0
	for _, pt := range r.LBTrace[:n/2] {
		if pt.W > peak {
			peak = pt.W
		}
	}
	fmt.Fprintf(w, "phase-1 peak W: %.2f, final W: %.2f (expect the final to settle below the peak:\n", peak, r.FinalW)
	fmt.Fprintf(w, "1024B IPsec has an interior optimum near w=0.3-0.5, while 64B pushes w toward 1)\n")
	return nil
}
