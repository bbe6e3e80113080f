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
	"sort"
	"strconv"
	"strings"
	"time"

	"nba/internal/bench"
	"nba/internal/core"
	"nba/internal/netio"
	"nba/internal/simtime"
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

	if *pcapOut != "" {
		cfg.CaptureTx = 1000
	}
	r, err := bench.Run(cfg)
	if err != nil {
		return fail(err)
	}
	if *pcapOut != "" {
		f, err := os.Create(*pcapOut)
		if err != nil {
			return fail(err)
		}
		if err := netio.WritePcap(f, r.Capture); err != nil {
			f.Close()
			return fail(err)
		}
		if err := f.Close(); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "captured %d frames to %s\n", len(r.Capture), *pcapOut)
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
		names := make([]string, 0, len(r.NodeStats))
		for n := range r.NodeStats {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			st := r.NodeStats[n]
			fmt.Fprintf(stdout, "  %-28s processed=%-10d dropped=%-8d splits=%-6d reuses=%d\n",
				n, st.Processed, st.Dropped, st.Splits, st.Reuses)
		}
	}
	return 0
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
