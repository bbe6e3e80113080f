// Command nbatrace records, summarizes and diffs deterministic run traces.
//
// Because every run is a pure function of configuration and seed, two
// recordings of the same run must be byte-identical; `nbatrace diff` verifies
// that and, when a code change altered behaviour, reports the first
// divergence (event index, virtual timestamp, payload delta).
//
// Usage:
//
//	nbatrace record -app ipv4 -lb cpu -gbps 1 -o run.jsonl
//	nbatrace record -app ipsec -lb fixed=0.8 -chrome run.chrome.json -o run.jsonl
//	nbatrace record -app ipsec -lb fixed=0.8 -faults -o outage.jsonl
//	nbatrace record -app ipsec -lb fixed=0.8 -overload -o shed.jsonl
//	nbatrace record -app ipsec -lb fixed=0.8 -corrupt -o corrupt.jsonl
//	nbatrace record -tenants ipv4,ipsec -o mt.jsonl
//	nbatrace record -tenants ipv4,ids -reconfig -o churn.jsonl
//	nbatrace summary run.jsonl
//	nbatrace diff a.jsonl b.jsonl
//
// -faults injects the canonical scripted GPU outage (internal/fault); the
// plan is part of the run identity, so faulted recordings replay and diff
// exactly like fault-free ones. -corrupt injects the canonical
// silent-corruption window (device 0 flips bits from 1/4 to 1/2 of the run)
// with the integrity sentinel armed at full sampling: the trace carries the
// sentinel checks, mismatches, quarantines and device escalation, and the
// summary gains an "integrity sentinels" section. -reconfig arms the
// canonical tenant-churn
// reconfiguration (internal/reconfig): a latent ipsec "churn" tenant is
// admitted at 1/4 of the run, retuned at 1/2 and evicted at 3/4 through
// epoch drain-and-handoff; the plan is likewise part of the run identity.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"nba/internal/bench"
	"nba/internal/core"
	"nba/internal/fault"
	"nba/internal/integrity"
	"nba/internal/overload"
	"nba/internal/reconfig"
	"nba/internal/simtime"
	"nba/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		if err := record(os.Args[2:]); err != nil {
			fatal(err)
		}
	case "summary":
		summary(os.Args[2:])
	case "diff":
		diff(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  nbatrace record [flags] -o <out.jsonl>   run a pipeline and record its trace
  nbatrace summary <trace.jsonl>           per-element / per-device profile
  nbatrace diff <a.jsonl> <b.jsonl>        first-divergence report`)
	os.Exit(2)
}

func record(args []string) error {
	fs := flag.NewFlagSet("nbatrace record", flag.ExitOnError)
	var (
		app      = fs.String("app", "ipv4", "built-in app: l2fwd, echo, ipv4, ipv6, ipsec, ids")
		tenants  = fs.String("tenants", "", "co-host built-in apps as equal-share tenants: app,app,... (overrides -app)")
		lbAlg    = fs.String("lb", "cpu", "load balancer: cpu, gpu, fixed=<f>, adaptive")
		gbps     = fs.Float64("gbps", 1, "offered load per port (Gbps)")
		size     = fs.Int("size", 64, "frame size in bytes; 0 = synthetic CAIDA mix")
		workers  = fs.Int("workers", 1, "worker threads per socket (0 = max)")
		duration = fs.Duration("duration", 2*time.Millisecond, "measured (virtual) duration")
		warmup   = fs.Duration("warmup", 200*time.Microsecond, "warmup (virtual)")
		seed     = fs.Uint64("seed", 42, "simulation seed")
		events   = fs.Int("events", 1<<16, "ring capacity: trace events retained for export")
		faults   = fs.Bool("faults", false, "inject the canonical GPU outage (device 0 fails at 1/4 of the run, recovers at 1/2)")
		corrupt  = fs.Bool("corrupt", false, "inject the canonical silent-corruption window (device 0 corrupts from 1/4 to 1/2 of the run) with the integrity sentinel armed")
		overl    = fs.Bool("overload", false, "arm overload control and inject a sustained 2.5x load burst over the middle half of the run")
		rc       = fs.Bool("reconfig", false, "arm the canonical tenant-churn reconfiguration (requires -tenants): admit a latent ipsec tenant at 1/4 of the run, retune at 1/2, evict at 3/4")
		out      = fs.String("o", "", "output JSONL path (required)")
		chrome   = fs.String("chrome", "", "also export Chrome trace_event JSON to this path")
	)
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "nbatrace record: -o is required")
		fs.Usage()
		os.Exit(2)
	}

	tr := trace.New(trace.Options{Capacity: *events})
	var spec core.Config
	if *tenants != "" {
		// Tenant recordings carry every tenant's events on one timeline
		// (each tagged with its tenant index), so multi-tenant runs diff
		// and replay exactly like single-app ones.
		for i, name := range strings.Split(*tenants, ",") {
			name = strings.TrimSpace(name)
			t, err := bench.AppTenant(name, name, *lbAlg, *size, *seed+1+uint64(i))
			if err != nil {
				return err
			}
			spec.Tenants = append(spec.Tenants, t)
		}
	} else {
		var err error
		if spec, err = bench.AppRun(*app, *lbAlg, *size, *seed); err != nil {
			return err
		}
	}
	spec.Seed = *seed
	spec.OfferedBpsPerPort = *gbps * 1e9
	spec.WorkersPerSocket = *workers
	spec.Warmup = simtime.Time(warmup.Nanoseconds()) * simtime.Nanosecond
	spec.Duration = simtime.Time(duration.Nanoseconds()) * simtime.Nanosecond
	spec.Tracer = tr
	if *rc {
		// The reconfig plan is part of the run identity too: recording twice
		// with -reconfig must still produce byte-identical traces, with the
		// epoch begin/drain/commit protocol and the churned tenant's whole
		// lifecycle (admit, retune, evict, digest seal) on the timeline.
		if *tenants == "" {
			return fmt.Errorf("-reconfig requires -tenants (the churn plan admits a tenant into a running mix)")
		}
		churn, err := bench.AppTenant("churn", "ipsec", *lbAlg, *size, *seed+101)
		if err != nil {
			return err
		}
		spec.LatentTenants = []core.Tenant{churn}
		spec.Reconfig = reconfig.Churn(spec.Warmup+spec.Duration, "churn")
	}
	if *faults {
		// The fault plan is part of the run identity: recording twice with
		// -faults must still produce byte-identical traces, with the
		// injected events and the framework's reactions (task failures, CPU
		// fallbacks, balancer collapse) on the timeline.
		span := spec.Warmup + spec.Duration
		spec.FaultPlan = fault.GPUOutage(span/4, span/2, 0)
	}
	if *corrupt {
		// Silent corruption with the sentinel armed: the corruption stream,
		// sampling coins and escalation are all part of the run identity, so
		// -corrupt recordings are byte-identical across records too.
		if spec.FaultPlan != nil {
			return fmt.Errorf("-corrupt and -faults are mutually exclusive")
		}
		span := spec.Warmup + spec.Duration
		spec.FaultPlan = fault.Corruption(span/4, span/2, 0, 1, 0x5a)
		spec.Integrity = &integrity.Config{SampleRate: 1}
	}
	if *overl {
		// Overload control plus a sustained burst: the shed decisions, level
		// transitions and bias updates are ordinary trace events, so armed
		// recordings replay and diff exactly like the rest.
		if spec.FaultPlan != nil {
			return fmt.Errorf("-overload and -faults/-corrupt are mutually exclusive")
		}
		span := spec.Warmup + spec.Duration
		spec.Overload = overload.Defaults()
		spec.FaultPlan = &fault.Plan{Events: fault.Burst(span/4, span/2, 2.5)}
	}
	if _, err := bench.Run(spec); err != nil {
		return err
	}

	appLabel := *app
	if *tenants != "" {
		appLabel = "tenants:" + *tenants
	}
	label := fmt.Sprintf("app=%s lb=%s gbps=%g size=%d workers=%d seed=%d faults=%v corrupt=%v overload=%v reconfig=%v",
		appLabel, *lbAlg, *gbps, *size, *workers, *seed, *faults, *corrupt, *overl, *rc)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f, label); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d events (%d retained) to %s\n", tr.Total(), tr.Total()-tr.Dropped(), *out)
	fmt.Printf("digest: %s\n", tr.Digest())

	if *chrome != "" {
		cf, err := os.Create(*chrome)
		if err != nil {
			return err
		}
		if err := trace.WriteChrome(cf, tr.Events()); err != nil {
			cf.Close()
			return err
		}
		if err := cf.Close(); err != nil {
			return err
		}
		fmt.Printf("chrome trace: %s (load in chrome://tracing or ui.perfetto.dev)\n", *chrome)
	}
	return nil
}

func summary(args []string) {
	if len(args) != 1 {
		usage()
	}
	f := readTrace(args[0])
	fmt.Printf("%s\n", f.Meta.Label)
	fmt.Printf("digest: %s (total %d, %d not retained)\n\n", f.Meta.Digest, f.Meta.Total, f.Meta.Dropped)
	if err := trace.Summarize(f.Events).Write(os.Stdout); err != nil {
		fatal(err)
	}
}

func diff(args []string) {
	if len(args) != 2 {
		usage()
	}
	a, b := readTrace(args[0]), readTrace(args[1])

	if a.Meta.Digest == b.Meta.Digest && a.Meta.Total == b.Meta.Total {
		fmt.Printf("zero divergence: both traces digest to %s over %d events\n", a.Meta.Digest, a.Meta.Total)
		return
	}

	fmt.Printf("traces diverge:\n  A: %s  (%d events, %s)\n  B: %s  (%d events, %s)\n",
		args[0], a.Meta.Total, a.Meta.Digest, args[1], b.Meta.Total, b.Meta.Digest)
	if lo, hi, div := trace.DiffCheckpoints(a.Checkpoints, b.Checkpoints); div {
		fmt.Printf("checkpoint chains diverge in event window (%d, %d]\n", lo, hi)
	}
	if d := trace.Diff(a.Events, b.Events); d != nil {
		// Positional index within the retained windows; with full traces
		// (Dropped == 0) this is the absolute event index.
		fmt.Printf("first retained-event divergence: %s\n", d.String())
	} else {
		fmt.Println("retained events are identical: the divergence is in events" +
			" that fell out of the ring; re-record with a larger -events")
	}
	os.Exit(1)
}

func readTrace(path string) *trace.File {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	tf, err := trace.ReadJSONL(f)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", path, err))
	}
	return tf
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nbatrace:", err)
	os.Exit(1)
}
