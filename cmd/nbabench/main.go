// Command nbabench regenerates the paper's tables and figures on the
// simulated platform.
//
// Usage:
//
//	nbabench -list
//	nbabench -exp fig12            # one experiment
//	nbabench -exp faults           # graceful degradation under a GPU outage
//	nbabench -all                  # everything
//	nbabench -all -quick           # fast smoke pass
//
// Stdout holds the experiments' output only, so it is the same on every run
// with the same flags; each experiment's wall time goes to stderr.
//
// Exit codes: 0 after a run, 1 for an unknown or failed experiment, 2 for a
// usage error (no mode, or a stray positional argument).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"nba/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command over its arguments and output streams; it returns
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nbabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		list     = fs.Bool("list", false, "list experiments")
		exp      = fs.String("exp", "", "experiment ID to run")
		all      = fs.Bool("all", false, "run every experiment")
		quick    = fs.Bool("quick", false, "shrink simulated durations")
		seed     = fs.Uint64("seed", 42, "simulation seed")
		parallel = fs.Int("parallel", 1, "concurrent grid points per experiment (0 = NumCPU, 1 = serial; output is identical at any value)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "nbabench: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	workers := *parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	opts := bench.Options{Quick: *quick, Seed: *seed, Parallelism: workers}

	var exps []bench.Experiment
	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Fprintf(stdout, "%-20s %s\n", e.ID, e.Title)
		}
		return 0
	case *exp != "":
		e, err := bench.ByID(*exp)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		exps = []bench.Experiment{e}
	case *all:
		exps = bench.All()
	default:
		fs.Usage()
		return 2
	}
	for _, e := range exps {
		start := time.Now()
		if err := e.Print(opts, stdout); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "%s (%.1fs wall)\n", e.ID, time.Since(start).Seconds())
	}
	return 0
}
