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
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"nba/internal/bench"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments")
		exp      = flag.String("exp", "", "experiment ID to run")
		all      = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "shrink simulated durations")
		seed     = flag.Uint64("seed", 42, "simulation seed")
		parallel = flag.Int("parallel", 1, "concurrent grid points per experiment (0 = NumCPU, 1 = serial; output is identical at any value)")
	)
	flag.Parse()

	workers := *parallel
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	opts := bench.Options{Quick: *quick, Seed: *seed, Parallelism: workers}

	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
	case *exp != "":
		e, err := bench.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := runOne(e, opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *all:
		for _, e := range bench.All() {
			if err := runOne(e, opts); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func runOne(e bench.Experiment, opts bench.Options) error {
	fmt.Printf("=== %s: %s\n", e.ID, e.Title)
	fmt.Printf("    paper: %s\n\n", e.Paper)
	start := time.Now()
	if err := e.Run(opts, os.Stdout); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Printf("\n    (%.1fs wall)\n\n", time.Since(start).Seconds())
	return nil
}
