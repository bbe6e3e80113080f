package core_test

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"nba/internal/bench"
	"nba/internal/chaos"
	"nba/internal/core"
	"nba/internal/golden"
	"nba/internal/trace"
)

// observedRun is what the parking oracle compares of one run: the whole
// report and the trace without its engine-dispatch records. A parked worker
// skips passes that change nothing, so only the dispatch records, one per
// engine event, may differ.
type observedRun struct {
	report string // sha256 of the report's Go-syntax rendering
	trace  string // digest of the trace without KindDispatch records
	events uint64 // the records in that trace
	// impure sums the report's FallbackPackets and FailedTasks, for the
	// purity rows; the report hash covers them too.
	impure uint64
}

func (o observedRun) String() string {
	return fmt.Sprintf("report %s trace %s (%d records)", o.report[:16], o.trace, o.events)
}

// observe runs fn with parking on or off and returns every run fn made, in
// completion order.
func observe(t *testing.T, parking bool, fn func()) []observedRun {
	t.Helper()
	defer core.SetParking(parking)()
	var mu sync.Mutex
	var runs []observedRun
	defer core.ObserveRuns(func(cfg *core.Config, r *core.Report) {
		if r == nil {
			// Replaces any tracer the caller attached: the oracle needs the
			// trace without dispatch records, and a tracer changes nothing
			// else about a run.
			cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1,
				Mask: trace.MaskAll &^ trace.MaskOf(trace.KindDispatch)})
			return
		}
		sum := sha256.Sum256(fmt.Appendf(nil, "%#v", *r))
		run := observedRun{fmt.Sprintf("%x", sum), cfg.Tracer.Digest(), cfg.Tracer.Total(),
			r.FallbackPackets + r.FailedTasks}
		mu.Lock()
		runs = append(runs, run)
		mu.Unlock()
	})()
	fn()
	return runs
}

// agree checks fn's runs are the same with parking on and off, and returns
// the parked runs. With sorted, runs that finish in a nondeterministic order
// (a parallel grid) are compared as multisets. The tables of the figure grid
// make no runs.
func agree(t *testing.T, sorted bool, fn func()) []observedRun {
	t.Helper()
	on, off := observe(t, true, fn), observe(t, false, fn)
	if sorted {
		cmp := func(a, b observedRun) int {
			if a.report != b.report {
				if a.report < b.report {
					return -1
				}
				return 1
			}
			if a.trace < b.trace {
				return -1
			}
			if a.trace > b.trace {
				return 1
			}
			return 0
		}
		slices.SortFunc(on, cmp)
		slices.SortFunc(off, cmp)
	}
	if len(on) != len(off) {
		t.Fatalf("%d runs parked, %d polling", len(on), len(off))
	}
	for i := range on {
		if on[i] != off[i] {
			t.Errorf("run %d differs:\n parked  %v\n polling %v", i, on[i], off[i])
		}
	}
	return on
}

// runCfg builds and runs one configuration.
func runCfg(t *testing.T, cfg core.Config) *core.System {
	t.Helper()
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestParkingAgreesOnReportGolden: every TestReportGolden case reports and
// traces the same with parking on and off.
func TestParkingAgreesOnReportGolden(t *testing.T) {
	names, pools, cfgs := core.ReportGoldenCases()
	for i, name := range names {
		t.Run(name, func(t *testing.T) {
			defer core.SetPacketPool(pools[i])()
			agree(t, false, func() { runCfg(t, cfgs[i]()) })
		})
	}
}

// TestParkingAgreesOnChaos: the chaos reproducers and a short fault,
// tenant and reconfiguration sweep run the same with parking on and off.
func TestParkingAgreesOnChaos(t *testing.T) {
	var cases []chaos.Case
	for _, f := range []string{"repro-fault.json", "repro-corrupt.json", "repro-reconfig.json"} {
		c, err := chaos.ReadRepro("../chaos/testdata/" + f)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c)
	}
	for seed := uint64(1); seed <= 2; seed++ {
		cases = append(cases,
			chaos.RandomCase("ipsec", seed),
			chaos.RandomCase("ids", seed),
			chaos.RandomTenantCase([]string{"ipv4", "ipsec"}, seed),
			chaos.RandomReconfigCase([]string{"ipv4", "ids"}, []string{"ipsec"}, seed))
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("%d-%s", i, c.Label()), func(t *testing.T) {
			agree(t, false, func() {
				if _, err := chaos.Run(c); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// pureFigures are the figure-grid experiments whose every run must keep
// its work where the configuration put it: no packet rescued onto the CPU,
// no task failed (ROADMAP item 3's purity rows).
var pureFigures = []string{"fig11", "fig12", "fig14"}

// TestParkingAgreesOnFigureGrid runs every quick figure and table of
// internal/bench with parking on and off: the printed output and every
// cell's report and trace must agree. The parked text of the whole grid is
// cmd/nbabench/testdata/quick-all.golden (with -update, it re-records the
// file; a -run subset of the experiments skips only that comparison), and
// every parked run of pureFigures must be pure. The two passes take about
// a minute and a half, so -short and the race detector skip it.
func TestParkingAgreesOnFigureGrid(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("the quick figure grid takes about a minute and a half")
	}
	all := bench.All()
	grid := make([]string, 0, len(all))
	for _, e := range all {
		t.Run(e.ID, func(t *testing.T) {
			o := bench.Options{Quick: true, Seed: 42, Parallelism: 2}
			var text [2]string
			parked := agree(t, true, func() {
				var sb strings.Builder
				if err := e.Print(o, &sb); err != nil {
					t.Fatal(err)
				}
				text[0], text[1] = text[1], sb.String()
			})
			if text[0] != text[1] {
				t.Errorf("printed output differs:\nparked:\n%s\npolling:\n%s", text[0], text[1])
			}
			if slices.Contains(pureFigures, e.ID) {
				if len(parked) == 0 {
					t.Error("no runs observed for the purity rows")
				}
				for _, r := range parked {
					if r.impure != 0 {
						t.Errorf("%v: %d packets rescued or tasks failed", r, r.impure)
					}
				}
			}
			grid = append(grid, text[0])
		})
	}
	if len(grid) == len(all) {
		golden.Check(t, "../../cmd/nbabench/testdata/quick-all.golden", strings.Join(grid, ""))
	}
}
