// Package bench is the experiment harness: one named experiment per table
// and figure of the paper's evaluation (§4), each regenerating the same
// rows/series the paper reports. cmd/nbabench and the repository-root
// benchmarks drive it.
package bench

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"nba/internal/core"
	"nba/internal/fault"
	"nba/internal/gen"
	"nba/internal/graph"
	"nba/internal/integrity"
	"nba/internal/invariant"
	"nba/internal/netio"
	"nba/internal/overload"
	"nba/internal/packet"
	"nba/internal/reconfig"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
	"nba/internal/trace"

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

// RunSpec describes one system run for the harness.
type RunSpec struct {
	App           string
	LB            string  // LoadBalance parameter
	Size          int     // frame bytes; <=0 = CAIDA mix
	OfferedBps    float64 // per port
	Workers       int     // per socket; 0 = max
	CompBatch     int     // 0 = 64
	IOBatch       int     // 0 = 64
	Opts          *graph.Options
	Warmup        simtime.Time
	Duration      simtime.Time
	ALBObserve    simtime.Time
	ALBUpdate     simtime.Time
	Topology      *sysinfo.Topology
	CostModel     *sysinfo.CostModel
	Seed          uint64
	LatencySample int
	// ForceRemote emulates remote-socket memory placement (NUMA ablation).
	ForceRemote bool
	// Generator overrides the standard generator (e.g. trace replay).
	Generator netio.Generator
	// LatencyBound switches adaptive balancing to the bounded-latency
	// controller (paper §7 extension).
	LatencyBound simtime.Time
	// CaptureTx records the first N transmitted frames for pcap export.
	CaptureTx int
	// GeneratorChanges swap the traffic mix mid-run.
	GeneratorChanges []core.GeneratorChange
	// Tracer, when non-nil, records the run's structured event stream.
	Tracer *trace.Tracer
	// FaultPlan, when non-nil, injects the scripted fault timeline.
	FaultPlan *fault.Plan
	// TaskTimeout overrides the worker-side offload completion timeout
	// (0 = framework default, negative = disabled).
	TaskTimeout simtime.Time
	// Overload, when non-nil, arms the overload-control subsystem
	// (bounded device queue, backpressure, CoDel shedder, governor).
	Overload *overload.Config
	// Integrity, when non-nil, arms the silent-corruption sentinel
	// (sampled re-execution, quarantine, device escalation).
	Integrity *integrity.Config
	// Checker, when non-nil, attaches the invariant oracle to the run.
	Checker *invariant.Checker
	// Tenants, when non-empty, co-hosts several app graphs as tenants on
	// one system; App, LB, Size and Generator are then ignored (each
	// tenant carries its own graph and generator).
	Tenants []core.Tenant
	// LatentTenants are admittable mid-run by the Reconfig plan; Reconfig,
	// when non-nil, applies the scripted runtime-reconfiguration timeline
	// (requires Tenants).
	LatentTenants []core.Tenant
	Reconfig      *reconfig.Plan
}

// Execute assembles and runs one system.
func Execute(spec RunSpec) (*core.Report, error) {
	if len(spec.Tenants) > 0 {
		return ExecuteConfig("", spec)
	}
	cfgText, err := AppConfig(spec.App, spec.LB)
	if err != nil {
		return nil, err
	}
	return ExecuteConfig(cfgText, spec)
}

// ExecuteConfig runs an explicit pipeline text with the spec's workload.
func ExecuteConfig(cfgText string, spec RunSpec) (*core.Report, error) {
	if spec.Warmup == 0 {
		spec.Warmup = 5 * simtime.Millisecond
	}
	if spec.Duration == 0 {
		spec.Duration = 25 * simtime.Millisecond
	}
	generator := spec.Generator
	if generator == nil && len(spec.Tenants) == 0 {
		generator = GeneratorFor(spec.App, spec.Size, spec.Seed+1)
	}
	cfg := core.Config{
		Topology:          spec.Topology,
		CostModel:         spec.CostModel,
		GraphConfig:       cfgText,
		GraphOpts:         spec.Opts,
		WorkersPerSocket:  spec.Workers,
		Generator:         generator,
		OfferedBpsPerPort: spec.OfferedBps,
		IOBatchSize:       spec.IOBatch,
		CompBatchSize:     spec.CompBatch,
		Warmup:            spec.Warmup,
		Duration:          spec.Duration,
		Seed:              spec.Seed,
		ALBObserve:        spec.ALBObserve,
		ALBUpdate:         spec.ALBUpdate,
		LatencySample:     spec.LatencySample,
		ForceRemoteMemory: spec.ForceRemote,
		ALBLatencyBound:   spec.LatencyBound,
		CaptureTx:         spec.CaptureTx,
		GeneratorChanges:  spec.GeneratorChanges,
		Tracer:            spec.Tracer,
		FaultPlan:         spec.FaultPlan,
		TaskTimeout:       spec.TaskTimeout,
		Overload:          spec.Overload,
		Integrity:         spec.Integrity,
		Checker:           spec.Checker,
		Tenants:           spec.Tenants,
		LatentTenants:     spec.LatentTenants,
		Reconfig:          spec.Reconfig,
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	rep, err := sys.Run()
	if err == nil {
		simAccount.Add(int64(spec.Warmup + spec.Duration))
	}
	return rep, err
}

// simAccount accumulates the virtual time simulated by Execute/ExecuteConfig
// since the last ResetSimSeconds, atomically so concurrent grid points can
// add to it. It feeds the sim-seconds-per-second trajectory metric reported
// by the root bench_test.go benchmarks (sums are commutative, so the total
// stays deterministic under any parallelism).
var simAccount atomic.Int64

// ResetSimSeconds zeroes the simulated-time account.
func ResetSimSeconds() { simAccount.Store(0) }

// SimSeconds returns the virtual seconds simulated since the last reset.
func SimSeconds() float64 { return simtime.Time(simAccount.Load()).Seconds() }

// durations returns (warmup, duration) honouring Quick mode.
func (o Options) durations(warm, dur simtime.Time) (simtime.Time, simtime.Time) {
	if o.Quick {
		return warm / 5, dur / 5
	}
	return warm, dur
}

// gbpsCell formats a throughput cell.
func gbpsCell(g float64) string { return fmt.Sprintf("%7.2f", g) }
