// Package bench is the experiment harness: one named experiment per table
// and figure of the paper's evaluation (§4), each regenerating the same
// rows/series the paper reports. cmd/nbabench drives it.
package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"

	"nba/internal/core"
	"nba/internal/gen"
	"nba/internal/netio"
	"nba/internal/packet"
	"nba/internal/simtime"

	"nba/internal/apps/ipv6"

	// Register the sample applications' elements.
	_ "nba/internal/apps/ids"
	_ "nba/internal/apps/ipsec"
	_ "nba/internal/apps/ipv4"
	_ "nba/internal/lb"
)

// Options tunes experiment execution.
type Options struct {
	// Quick shrinks simulated durations for smoke runs and unit tests.
	Quick bool
	// Seed drives the run randomness.
	Seed uint64
	// Parallelism bounds how many independent grid points an experiment may
	// execute concurrently (internal/par). <= 1 runs serially; every
	// experiment's output is byte-identical at any value because grid results
	// are collected slot-indexed and printed in grid order.
	Parallelism int
}

// workers is the effective par worker count for grid sweeps.
func (o Options) workers() int {
	if o.Parallelism <= 1 {
		return 1
	}
	return o.Parallelism
}

// Experiment is one reproducible paper result.
type Experiment struct {
	ID    string
	Title string
	// Paper summarises what the paper reports for this experiment.
	Paper string
	Run   func(o Options, w io.Writer) error
}

// Print runs e and writes its output framed as one section of the figure
// grid: a header with the ID, title and paper summary, the output, then two
// blank lines. nbabench prints these sections, and
// cmd/nbabench/testdata/quick-all.golden is the quick grid's.
func (e Experiment) Print(o Options, w io.Writer) error {
	fmt.Fprintf(w, "=== %s: %s\n", e.ID, e.Title)
	fmt.Fprintf(w, "    paper: %s\n\n", e.Paper)
	if err := e.Run(o, w); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	fmt.Fprint(w, "\n\n")
	return nil
}

var experiments []Experiment

func register(e Experiment) { experiments = append(experiments, e) }

// All returns every registered experiment, sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), experiments...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds one experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q (try: %s)", id, ids())
}

func ids() string {
	s := ""
	for i, e := range All() {
		if i > 0 {
			s += ", "
		}
		s += e.ID
	}
	return s
}

// --- pipeline configurations (paper Figure 8) ---

// AppConfig returns the pipeline text for a sample application. lbAlg is a
// LoadBalance parameter ("cpu", "gpu", "fixed=0.8", "adaptive"); apps
// without offloadable elements ignore it.
func AppConfig(app, lbAlg string) (string, error) {
	switch app {
	case "l2fwd":
		return `FromInput() -> L2Forward() -> ToOutput();`, nil
	case "echo":
		return `FromInput() -> EchoBack() -> ToOutput();`, nil
	case "ipv4":
		return fmt.Sprintf(`
			FromInput() -> CheckIPHeader() -> LoadBalance("%s")
				-> IPLookup("entries=65536", "seed=42") -> DecIPTTL() -> ToOutput();`, lbAlg), nil
	case "ipv6":
		return fmt.Sprintf(`
			FromInput() -> CheckIP6Header() -> LoadBalance("%s")
				-> LookupIP6Route("entries=65536", "seed=42") -> DecIP6HLIM() -> ToOutput();`, lbAlg), nil
	case "ipsec":
		return fmt.Sprintf(`
			FromInput() -> CheckIPHeader() -> IPsecESPencap("sas=1024")
				-> LoadBalance("%s")
				-> IPsecAES("sas=1024") -> IPsecHMAC("sas=1024") -> ToOutput();`, lbAlg), nil
	case "ids":
		return fmt.Sprintf(`
			FromInput() -> CheckIPHeader() -> LoadBalance("%s")
				-> IDSMatchAC("alert") -> IDSMatchRE("alert") -> EchoBack() -> ToOutput();`, lbAlg), nil
	default:
		return "", fmt.Errorf("bench: unknown app %q", app)
	}
}

// GeneratorFor builds the standard generator for an app and frame size.
// size <= 0 selects the synthetic-CAIDA mix.
func GeneratorFor(app string, size int, seed uint64) netio.Generator {
	if size <= 0 {
		return &gen.SyntheticCAIDA{Flows: 16384, Seed: seed}
	}
	if app == "ipv6" {
		return &gen.UDP6{FrameLen: size, Flows: 16384, Seed: seed, Dsts: ipv6Dsts()}
	}
	return &gen.UDP4{FrameLen: size, Flows: 16384, Seed: seed}
}

// ipv6Dsts returns destination addresses drawn from the standard IPv6 FIB
// (entries=65536, seed=42) so generated traffic spreads over real prefixes.
var (
	cachedIPv6Dsts []packet.IPv6Addr
	ipv6DstsOnce   sync.Once
)

func ipv6Dsts() []packet.IPv6Addr {
	// sync.Once rather than a nil check: grid points run concurrently under
	// Options.Parallelism, and the address list must be built exactly once.
	ipv6DstsOnce.Do(func() {
		routes := ipv6.RandomRoutes(65536, 256, 42)
		for i, rt := range routes {
			if rt.PLen >= 16 && rt.PLen <= 64 && i%4 == 0 {
				cachedIPv6Dsts = append(cachedIPv6Dsts, rt.Prefix)
			}
		}
	})
	return cachedIPv6Dsts
}

// AppRun starts the description of a single-app run: a core.Config with the
// app's pipeline, its standard generator (seeded seed+1, so traffic and
// framework randomness draw from different streams) and the seed filled in.
// The caller sets load, window and whatever else the run needs on the result.
func AppRun(app, lbAlg string, size int, seed uint64) (core.Config, error) {
	cfgText, err := AppConfig(app, lbAlg)
	return core.Config{GraphConfig: cfgText, Generator: GeneratorFor(app, size, seed+1), Seed: seed}, err
}

// AppTenant hosts a sample application as an equal-share tenant under the
// given name, with its own generator stream.
func AppTenant(name, app, lbAlg string, size int, genSeed uint64) (core.Tenant, error) {
	cfgText, err := AppConfig(app, lbAlg)
	return core.Tenant{Name: name, GraphConfig: cfgText, Share: 1, Generator: GeneratorFor(app, size, genSeed)}, err
}

// Run assembles and runs one system.
func Run(cfg core.Config) (*core.Report, error) {
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	return sys.Run()
}

// durations returns (warmup, duration) honouring Quick mode.
func (o Options) durations(warm, dur simtime.Time) (simtime.Time, simtime.Time) {
	if o.Quick {
		return warm / 5, dur / 5
	}
	return warm, dur
}

// gbpsCell formats a throughput cell.
func gbpsCell(g float64) string { return fmt.Sprintf("%7.2f", g) }
