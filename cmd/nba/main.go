// Command nba runs a packet-processing pipeline described in the NBA
// configuration language on the simulated platform and reports throughput,
// drops and latency. Traffic is fixed-size UDP (-size N) or the synthetic
// CAIDA mix (-size 0).
//
// Usage:
//
//	nba -config router.click -gbps 10 -size 64 -duration 100ms
//	nba -app ipsec -lb adaptive -gbps 10 -size 256
//	nba -app ipsec -lb fixed=0.8 -size 0
//	nba -tenants ipv4=2,ipsec -gbps 10 -size 64
//	nba -app ipsec -lb fixed=0.8 -faults -record outage.jsonl
//	nba -tenants ipv4,ids -reconfig -record churn.jsonl -chrome churn.json
//
// -record writes the run's event trace as JSONL for `nbatrace summary` and
// `nbatrace diff`; -chrome writes it as Chrome trace_event JSON. Every run
// is a pure function of its flags, so recording the same flags twice must
// give byte-identical traces. Four flags arm a canonical scripted scenario,
// which is part of the run's identity like the seed:
//
//   - -faults: device 0 fails at 1/4 of the run and recovers at 1/2
//     (internal/fault);
//   - -corrupt: device 0 silently flips bits from 1/4 to 1/2 of the run,
//     with the integrity sentinel checking every offloaded aggregate;
//   - -overload: overload control armed under a 2.5x load burst over the
//     middle half of the run;
//   - -reconfig (needs -tenants): a latent ipsec "churn" tenant is admitted
//     at 1/4 of the run, retuned at 1/2 and evicted at 3/4 through epoch
//     drain-and-handoff (internal/reconfig).
//
// Exit codes: 0 after a run, 1 when the run cannot be built or its output
// cannot be written, 2 for a usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"nba/internal/bench"
	"nba/internal/core"
	"nba/internal/fault"
	"nba/internal/integrity"
	"nba/internal/netio"
	"nba/internal/overload"
	"nba/internal/reconfig"
	"nba/internal/simtime"
	"nba/internal/stats"
	"nba/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command over its arguments and output streams; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nba", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		configPath = fs.String("config", "", "pipeline configuration file (.click)")
		app        = fs.String("app", "", "built-in app: l2fwd, echo, ipv4, ipv6, ipsec, ids")
		lbAlg      = fs.String("lb", "cpu", "load balancer: cpu, gpu, fixed=<f>, adaptive")
		gbps       = fs.Float64("gbps", 10, "offered load per port (Gbps)")
		size       = fs.Int("size", 64, "frame size in bytes; 0 = synthetic CAIDA mix")
		workers    = fs.Int("workers", 0, "worker threads per socket (0 = max)")
		duration   = fs.Duration("duration", 50*time.Millisecond, "measured (virtual) duration")
		warmup     = fs.Duration("warmup", 10*time.Millisecond, "warmup (virtual)")
		tenants    = fs.String("tenants", "", "co-host built-in apps as tenants: app[=share],app[=share],... (overrides -config/-app)")
		pcapOut    = fs.String("pcap", "", "capture the first 1000 transmitted frames to a pcap file")
		verbose    = fs.Bool("v", false, "print per-element statistics")
		seed       = fs.Uint64("seed", 42, "simulation seed")
		recordOut  = fs.String("record", "", "write the run's event trace to this JSONL file")
		chromeOut  = fs.String("chrome", "", "write the run's event trace to this file as Chrome trace_event JSON")
		faults     = fs.Bool("faults", false, "inject the canonical GPU outage (device 0 fails at 1/4 of the run, recovers at 1/2)")
		corrupt    = fs.Bool("corrupt", false, "inject the canonical silent-corruption window (device 0 corrupts from 1/4 to 1/2 of the run) with the integrity sentinel armed")
		overl      = fs.Bool("overload", false, "arm overload control and inject a sustained 2.5x load burst over the middle half of the run")
		rc         = fs.Bool("reconfig", false, "arm the canonical tenant-churn reconfiguration (requires -tenants): admit a latent ipsec tenant at 1/4 of the run, retune at 1/2, evict at 3/4")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "nba:", err)
		return 1
	}

	var cfg core.Config
	switch {
	case *tenants != "":
		ts, err := parseTenants(*tenants, *lbAlg, *size, *seed)
		if err != nil {
			return fail(err)
		}
		cfg.Tenants = ts
	case *configPath != "":
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return fail(err)
		}
		cfg.GraphConfig = string(data)
		cfg.Generator = bench.GeneratorFor(*app, *size, *seed+1)
	case *app != "":
		c, err := bench.AppRun(*app, *lbAlg, *size, *seed)
		if err != nil {
			return fail(err)
		}
		cfg = c
	default:
		fmt.Fprintln(stderr, "nba: need -config or -app")
		fs.Usage()
		return 2
	}
	cfg.Seed = *seed
	cfg.OfferedBpsPerPort = *gbps * 1e9
	cfg.WorkersPerSocket = *workers
	cfg.Warmup = simtime.Time(warmup.Nanoseconds()) * simtime.Nanosecond
	cfg.Duration = simtime.Time(duration.Nanoseconds()) * simtime.Nanosecond

	if err := armScenarios(&cfg, *tenants != "", *lbAlg, *size, *seed, *faults, *corrupt, *overl, *rc); err != nil {
		return fail(err)
	}
	if *recordOut != "" || *chromeOut != "" {
		cfg.Tracer = trace.New(trace.Options{})
	}
	if *pcapOut != "" {
		cfg.CaptureTx = 1000
	}
	r, err := bench.Run(cfg)
	if err != nil {
		return fail(err)
	}
	// Every output file is written before the first line of the report, so a
	// run that cannot write one prints nothing to stdout.
	var notes []string
	if *pcapOut != "" {
		if err := writeFile(*pcapOut, func(w io.Writer) error { return netio.WritePcap(w, r.Capture) }); err != nil {
			return fail(err)
		}
		notes = append(notes, fmt.Sprintf("captured %d frames to %s", len(r.Capture), *pcapOut))
	}
	tr := cfg.Tracer
	if *recordOut != "" {
		if err := writeFile(*recordOut, func(w io.Writer) error { return tr.WriteJSONL(w, runLabel(fs)) }); err != nil {
			return fail(err)
		}
		notes = append(notes, fmt.Sprintf("recorded %d events (%d retained) to %s", tr.Total(), tr.Total()-tr.Dropped(), *recordOut),
			"digest: "+tr.Digest())
	}
	if *chromeOut != "" {
		if err := writeFile(*chromeOut, func(w io.Writer) error { return trace.WriteChrome(w, tr.Events()) }); err != nil {
			return fail(err)
		}
		notes = append(notes, fmt.Sprintf("chrome trace: %s (load in chrome://tracing or ui.perfetto.dev)", *chromeOut))
	}
	for _, n := range notes {
		fmt.Fprintln(stdout, n)
	}

	fmt.Fprintf(stdout, "measured window:      %v\n", r.Measured)
	fmt.Fprintf(stdout, "throughput:           %.2f Gbps (%.2f Mpps)\n", r.TxGbps, r.TxPPS/1e6)
	for i, g := range r.PerPortGbps {
		fmt.Fprintf(stdout, "  port %d:             %.2f Gbps\n", i, g)
	}
	fmt.Fprintf(stdout, "rx delivered/dropped: %d / %d (alloc failures %d)\n", r.RxDelivered, r.RxDropped, r.AllocFailed)
	fmt.Fprintf(stdout, "graph drops:          %d\n", r.GraphDrops)
	fmt.Fprintf(stdout, "offloaded packets:    %d\n", r.OffloadedPackets)
	for _, tr := range r.Tenants {
		fmt.Fprintf(stdout, "tenant %-12s %.2f Gbps, rx %d/%d, shed %d, p99 %v\n",
			tr.Name+":", tr.TxGbps, tr.RxDelivered, tr.RxDropped, tr.ShedPackets,
			tr.Latency.Percentile(99))
	}
	if r.Latency.Count() > 0 {
		fmt.Fprintf(stdout, "latency min/avg/p99:  %.1f / %.1f / %.1f us\n",
			r.Latency.Min().Micros(), r.Latency.Mean().Micros(), r.Latency.Percentile(99).Micros())
	}
	if len(r.LBTrace) > 0 {
		fmt.Fprintf(stdout, "final offload frac:   %.2f\n", r.FinalW)
	}
	for i, d := range r.DeviceStats {
		if d.Tasks == 0 {
			continue
		}
		fmt.Fprintf(stdout, "device %d: %d tasks, %d pkts (%.0f pkts/task), kernel busy %v, copy busy %v, host busy %v, maxwait %v\n",
			i, d.Tasks, d.Packets, float64(d.Packets)/float64(d.Tasks),
			d.KernelBusy, d.CopyBusy, d.HostBusy, d.MaxQueueWait)
	}
	if *verbose {
		fmt.Fprintln(stdout, "per-element statistics:")
		for _, n := range stats.SortedKeys(r.NodeStats) {
			st := r.NodeStats[n]
			fmt.Fprintf(stdout, "  %-28s processed=%-10d dropped=%-8d splits=%-6d reuses=%d\n",
				n, st.Processed, st.Dropped, st.Splits, st.Reuses)
		}
	}
	return 0
}

// armScenarios adds the canonical scripted scenarios the flags ask for to
// cfg. The plans scale with the run's span, so they are armed after Warmup
// and Duration are set.
func armScenarios(cfg *core.Config, hasTenants bool, lbAlg string, size int, seed uint64, faults, corrupt, overl, rc bool) error {
	span := cfg.Warmup + cfg.Duration
	if rc {
		if !hasTenants {
			return fmt.Errorf("-reconfig requires -tenants (the churn plan admits a tenant into a running mix)")
		}
		churn, err := bench.AppTenant("churn", "ipsec", lbAlg, size, seed+101)
		if err != nil {
			return err
		}
		cfg.LatentTenants = []core.Tenant{churn}
		cfg.Reconfig = reconfig.Churn(span, "churn")
	}
	if faults {
		cfg.FaultPlan = fault.GPUOutage(span/4, span/2, 0)
	}
	if corrupt {
		if cfg.FaultPlan != nil {
			return fmt.Errorf("-corrupt and -faults are mutually exclusive")
		}
		cfg.FaultPlan = fault.Corruption(span/4, span/2, 0, 1, 0x5a)
		cfg.Integrity = &integrity.Config{SampleRate: 1}
	}
	if overl {
		if cfg.FaultPlan != nil {
			return fmt.Errorf("-overload and -faults/-corrupt are mutually exclusive")
		}
		cfg.Overload = overload.Defaults()
		cfg.FaultPlan = &fault.Plan{Events: fault.Burst(span/4, span/2, 2.5)}
	}
	return nil
}

// runLabel names a recorded run in its trace file: every flag that shapes
// the run, with its value, in name order.
func runLabel(fs *flag.FlagSet) string {
	var parts []string
	fs.VisitAll(func(f *flag.Flag) {
		switch f.Name {
		case "record", "chrome", "pcap", "v":
			return
		}
		if v := f.Value.String(); v != "" {
			parts = append(parts, f.Name+"="+v)
		}
	})
	return strings.Join(parts, " ")
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// parseTenants turns "app[=share],app[=share],..." into a tenant list. Each
// tenant runs the built-in app's pipeline with the shared -lb algorithm and
// its own generator stream (seeded per slot so co-tenants' traffic differs).
func parseTenants(list, lbAlg string, size int, seed uint64) ([]core.Tenant, error) {
	var out []core.Tenant
	for i, item := range strings.Split(list, ",") {
		name, shareStr, hasShare := strings.Cut(strings.TrimSpace(item), "=")
		share := 1.0
		if hasShare {
			f, err := strconv.ParseFloat(shareStr, 64)
			if err != nil {
				return nil, fmt.Errorf("tenant %q: bad share %q", name, shareStr)
			}
			share = f
		}
		t, err := bench.AppTenant(name, name, lbAlg, size, seed+1+uint64(i))
		if err != nil {
			return nil, err
		}
		t.Share = share
		out = append(out, t)
	}
	return out, nil
}
