// Package core assembles the NBA framework: worker threads running
// replicated run-to-completion pipelines over RSS-partitioned RX queues,
// device threads driving the accelerators, the offload aggregation path,
// and the adaptive load-balancing control loop (paper §3, Figures 3 and 6).
package core

import (
	"fmt"
	"math"

	"nba/internal/batch"
	"nba/internal/fault"
	"nba/internal/graph"
	"nba/internal/integrity"
	"nba/internal/invariant"
	"nba/internal/netio"
	"nba/internal/overload"
	"nba/internal/reconfig"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

// Tenant is one hosted application in a multi-tenant run: its own pipeline
// graph and a weighted share of the machine's offered load and batch
// priority. All tenants share the workers, NIC
// RX queues (carved tenant-major) and accelerators of the one simulated box.
type Tenant struct {
	// Name identifies the tenant in reports, NodeStats keys and invariant
	// messages. Defaults to "t<index>"; must be unique.
	Name string
	// GraphConfig is the tenant's pipeline in the NBA configuration
	// language. Required.
	GraphConfig string
	// Share is the tenant's weight, normalised over the tenant set: it is
	// both the tenant's fraction of OfferedBpsPerPort and its weighted
	// round-robin batch-priority weight on every worker. 0 selects 1.
	Share float64
	// RateScale scales the tenant's own offered load relative to its fair
	// share (a noisy neighbour offering 2x its share has RateScale 2,
	// without shrinking the victims' nominal rates). 0 selects 1.
	RateScale float64
	// Generator produces this tenant's traffic; nil inherits
	// Config.Generator.
	Generator netio.Generator
}

// GeneratorChange swaps the traffic generator mid-run (the paper's §3.4
// scenario: the adaptive balancer must find a new convergence point when
// the workload changes). The offered wire rate is preserved: the packet
// rate is recomputed for the new generator's frame-size mix.
type GeneratorChange struct {
	At        simtime.Time
	Generator netio.Generator
}

// Config describes one system run.
type Config struct {
	// Topology is the simulated machine; nil selects the paper's default.
	Topology *sysinfo.Topology
	// CostModel is the calibration; nil selects sysinfo.Default().
	CostModel *sysinfo.CostModel
	// GraphConfig is the pipeline in the NBA configuration language.
	// Required unless Tenants is set (the two are mutually exclusive).
	GraphConfig string
	// Tenants, when non-empty, hosts one app graph per tenant on the same
	// workers, queues and devices (multi-tenant mode). A single-tenant
	// entry behaves bit-identically to the equivalent GraphConfig run —
	// the disarm contract — and an empty slice is classic single-app mode.
	Tenants []Tenant
	// GraphOpts toggles branch prediction / offload chaining (ablations);
	// nil selects graph.DefaultOptions().
	GraphOpts *graph.Options

	// WorkersPerSocket <= Topology.MaxWorkersPerSocket(); 0 = maximum.
	WorkersPerSocket int

	// Generator produces traffic. Required unless every tenant supplies
	// its own.
	Generator netio.Generator
	// OfferedBpsPerPort is the offered wire rate per port.
	OfferedBpsPerPort float64
	// GeneratorChanges optionally swap the traffic mix mid-run.
	// Single-tenant runs only: with multiple tenants each tenant owns its
	// generator and a global swap would be ambiguous.
	GeneratorChanges []GeneratorChange

	// CompBatchSize is the computation batch size (paper default 64).
	CompBatchSize int

	// Warmup is excluded from measurement; Duration is the measured span.
	Warmup   simtime.Time
	Duration simtime.Time

	// Seed drives all run randomness (LB coin flips, etc.).
	Seed uint64

	// ALBObserve / ALBUpdate control the adaptive load balancer cadence
	// (paper: 0.2 s updates over smoothed throughput).
	ALBObserve simtime.Time
	ALBUpdate  simtime.Time
	// ALBLatencyBound, when positive, switches adaptive balancing to the
	// bounded-latency variant (paper §7): maximise throughput subject to
	// p99 latency <= bound.
	ALBLatencyBound simtime.Time

	// LatencySample records every Nth transmitted packet (1 = all).
	LatencySample int

	// CaptureTx, when positive, records the first N transmitted frames
	// (with virtual timestamps) into Report.Capture for pcap export.
	CaptureTx int

	// Tracer, when non-nil, records the run's structured event stream
	// (engine dispatch, element batches, GPU phases, LB updates, NIC
	// rx/drop). nil disables tracing with zero hot-path cost.
	Tracer *trace.Tracer

	// FaultPlan, when non-nil, is the scripted fault timeline injected into
	// the run (device fail/hang/slowdown, RX-queue flaps, rate bursts). The
	// plan is part of the run's identity: the same configuration + seed +
	// plan reproduce the same trace digest.
	FaultPlan *fault.Plan

	// Reconfig, when non-nil and non-empty, is the scripted runtime
	// reconfiguration timeline: tenant admits/evicts, share retunes, device
	// hot-(un)plug and RX-queue resizes, each applied through the epoch
	// drain-and-handoff protocol. Like FaultPlan, the plan is part of the
	// run's identity (same configuration + seed + plan reproduce the same
	// trace digest), and a nil or empty plan leaves the event timeline —
	// and therefore every golden digest — byte-identical.
	// Requires explicit-tenant mode (Tenants non-empty).
	Reconfig *reconfig.Plan

	// LatentTenants are tenants that do not exist at run start but may be
	// admitted by a Reconfig tenant.admit event, which references them by
	// Name. They receive the same default-filling and validation as
	// Tenants; names must be unique across both sets. Latent tenants never
	// touched by the plan cost nothing at runtime (their graphs are
	// pre-built once for validation, outside the engine).
	LatentTenants []Tenant

	// Checker, when non-nil, is the invariant oracle threaded through the
	// run: dispatch monotonicity, GPU phase ordering and utilization, ALB
	// bounds and collapse-on-outage, RX-queue accounting, mempool drain and
	// packet conservation are verified as the run executes, and violations
	// are collected instead of panicking (the chaos driver needs runs to
	// finish). Attaching a checker also arms the drain watchdog (see
	// DrainGrace), so it perturbs the event timeline; golden-trace runs
	// must not attach one.
	Checker *invariant.Checker

	// DrainGrace is how long a drain may take before it is declared stuck.
	// Past the end of arrivals, the drain watchdog then records a
	// drain.stuck violation and force-stops the engine; past a reconfig
	// epoch's begin, the epoch records a reconfig.orphan violation and
	// commits undrained. 0 selects the default (1 virtual second) when a
	// Checker is attached or a reconfig plan is armed, and otherwise leaves
	// the watchdog unarmed; a negative value is an error.
	DrainGrace simtime.Time

	// Overload, when non-nil, arms the end-to-end overload-control
	// subsystem: the CoDel sojourn shedder and the per-socket degradation
	// governor. Nil disables all of
	// it — no extra engine events, no behavioural change — so pre-overload
	// event timelines and golden trace digests are unchanged.
	Overload *overload.Config

	// Integrity, when non-nil, arms the silent-corruption detection
	// subsystem: sentinel re-execution of a sampled fraction of offloaded
	// aggregates, quarantine of mismatched batches, and per-device EWMA
	// escalation (ALB demotion, then fail-stop with a recovery probe). Nil
	// disables all of it — no extra engine events, no behavioural change —
	// so pre-integrity event timelines and golden trace digests are
	// unchanged.
	Integrity *integrity.Config

	// TaskTimeout is the device stall limit: a device holding queued tasks
	// that has finished none for this long is declared hung, and its whole
	// queue fails back to the workers, which rescue the aggregates on the
	// CPU. It measures the device's lack of progress, not a task's age, so a
	// long queue on a healthy device never trips it. 0 selects the default
	// (5 ms, far above any healthy task's service time); negative disables
	// the watchdog.
	TaskTimeout simtime.Time

	// ForceRemoteMemory emulates placing packet buffers on the remote
	// socket: every element cost is inflated by the cost model's
	// NUMAPenalty (paper §2: remote-socket memory costs 20-30% throughput).
	// Used by the NUMA ablation bench.
	ForceRemoteMemory bool
}

// finite rejects NaN and ±Inf, which pass every ordered comparison below.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// checkGenerator runs the parameter check a generator may offer (gen's
// UDP4 and UDP6 do), so a bad frame length is an error here rather than a
// panic inside Run. netio.Generator does not require the method.
func checkGenerator(g netio.Generator) error {
	if v, ok := g.(interface{ Validate() error }); ok {
		return v.Validate()
	}
	return nil
}

// withDefaults validates and fills defaults, returning a copy.
func (c Config) withDefaults() (Config, error) {
	if c.Topology == nil {
		c.Topology = sysinfo.DefaultTopology()
	}
	if err := c.Topology.Validate(); err != nil {
		return c, err
	}
	if c.CostModel == nil {
		c.CostModel = sysinfo.Default()
	}
	if err := c.CostModel.Validate(); err != nil {
		return c, err
	}
	// Zero selects a default below; a negative value has no meaning.
	for _, f := range [...]struct {
		name string
		v    int64
	}{
		{"Warmup", int64(c.Warmup)},
		{"Duration", int64(c.Duration)},
		{"CaptureTx", int64(c.CaptureTx)},
		{"DrainGrace", int64(c.DrainGrace)},
	} {
		if f.v < 0 {
			return c, fmt.Errorf("core: %s must not be negative", f.name)
		}
	}
	if err := checkGenerator(c.Generator); err != nil {
		return c, fmt.Errorf("core: Generator: %w", err)
	}
	for i, gc := range c.GeneratorChanges {
		if err := checkGenerator(gc.Generator); err != nil {
			return c, fmt.Errorf("core: GeneratorChanges[%d]: %w", i, err)
		}
	}
	if len(c.Tenants) > 0 {
		if c.GraphConfig != "" {
			return c, fmt.Errorf("core: GraphConfig and Tenants are mutually exclusive")
		}
		if len(c.GeneratorChanges) > 0 && len(c.Tenants) > 1 {
			return c, fmt.Errorf("core: GeneratorChanges are single-tenant only")
		}
		// Fill tenant defaults on copies so the caller's slices are untouched.
		c.Tenants = append([]Tenant(nil), c.Tenants...)
		c.LatentTenants = append([]Tenant(nil), c.LatentTenants...)
		names := make(map[string]bool, len(c.Tenants)+len(c.LatentTenants))
		fill := func(t *Tenant, defName string) error {
			if t.GraphConfig == "" {
				return fmt.Errorf("core: tenant %s: GraphConfig is required", defName)
			}
			if t.Name == "" {
				t.Name = defName
			}
			if names[t.Name] {
				return fmt.Errorf("core: duplicate tenant name %q", t.Name)
			}
			names[t.Name] = true
			if t.Share < 0 || !finite(t.Share) {
				return fmt.Errorf("core: tenant %s: Share %v must be finite and non-negative", t.Name, t.Share)
			}
			if t.Share == 0 {
				t.Share = 1
			}
			if t.RateScale < 0 || !finite(t.RateScale) {
				return fmt.Errorf("core: tenant %s: RateScale %v must be finite and non-negative", t.Name, t.RateScale)
			}
			if t.RateScale == 0 {
				t.RateScale = 1
			}
			if t.Generator == nil {
				t.Generator = c.Generator
			}
			if t.Generator == nil {
				return fmt.Errorf("core: tenant %s: no Generator (set one on the tenant or on the Config)", t.Name)
			}
			if err := checkGenerator(t.Generator); err != nil {
				return fmt.Errorf("core: tenant %s: Generator: %w", t.Name, err)
			}
			return nil
		}
		for i := range c.Tenants {
			if err := fill(&c.Tenants[i], fmt.Sprintf("t%d", i)); err != nil {
				return c, err
			}
		}
		for i := range c.LatentTenants {
			if err := fill(&c.LatentTenants[i], fmt.Sprintf("l%d", i)); err != nil {
				return c, err
			}
		}
	} else {
		if c.GraphConfig == "" {
			return c, fmt.Errorf("core: GraphConfig is required")
		}
		if c.Generator == nil {
			return c, fmt.Errorf("core: Generator is required")
		}
	}
	max := c.Topology.MaxWorkersPerSocket()
	if c.WorkersPerSocket == 0 {
		c.WorkersPerSocket = max
	}
	if c.WorkersPerSocket < 1 || c.WorkersPerSocket > max {
		return c, fmt.Errorf("core: WorkersPerSocket %d out of [1,%d]", c.WorkersPerSocket, max)
	}
	if c.CompBatchSize == 0 {
		c.CompBatchSize = 64
	}
	if c.CompBatchSize < 1 || c.CompBatchSize > batch.MaxBatchSize {
		return c, fmt.Errorf("core: CompBatchSize %d out of [1,%d]", c.CompBatchSize, batch.MaxBatchSize)
	}
	if c.Duration == 0 {
		c.Duration = 50 * simtime.Millisecond
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * simtime.Millisecond
	}
	if c.ALBObserve == 0 {
		c.ALBObserve = 2 * simtime.Millisecond
	}
	if c.ALBUpdate == 0 {
		c.ALBUpdate = 10 * simtime.Millisecond
	}
	if c.LatencySample == 0 {
		c.LatencySample = 1
	}
	if c.OfferedBpsPerPort <= 0 || !finite(c.OfferedBpsPerPort) {
		return c, fmt.Errorf("core: OfferedBpsPerPort %v must be finite and positive", c.OfferedBpsPerPort)
	}
	if c.GraphOpts == nil {
		opts := graph.DefaultOptions()
		c.GraphOpts = &opts
	}
	if c.TaskTimeout == 0 {
		c.TaskTimeout = 5 * simtime.Millisecond
	}
	if c.Overload != nil {
		oc := c.Overload.WithDefaults()
		c.Overload = &oc
	}
	if c.Integrity != nil {
		if err := c.Integrity.Validate(); err != nil {
			return c, fmt.Errorf("core: Integrity: %w", err)
		}
		ic := *c.Integrity
		c.Integrity = &ic
	}
	if c.FaultPlan != nil {
		nqueues := c.WorkersPerSocket
		if len(c.Tenants) > 0 {
			// Multi-tenant ports carve one queue per (tenant, worker).
			nqueues *= len(c.Tenants)
		}
		if err := c.FaultPlan.Validate(len(c.Topology.Devices), len(c.Topology.Ports), nqueues); err != nil {
			return c, err
		}
	}
	reconfigArmed := c.Reconfig != nil && len(c.Reconfig.Events) > 0
	if reconfigArmed {
		if len(c.Tenants) == 0 {
			return c, fmt.Errorf("core: Reconfig requires explicit-tenant mode (set Tenants)")
		}
		initial := make([]string, len(c.Tenants))
		for i, t := range c.Tenants {
			initial[i] = t.Name
		}
		latent := make([]string, len(c.LatentTenants))
		for i, t := range c.LatentTenants {
			latent[i] = t.Name
		}
		if err := c.Reconfig.Validate(initial, latent, len(c.Topology.Devices), len(c.Topology.Ports)); err != nil {
			return c, err
		}
	} else if len(c.LatentTenants) > 0 {
		return c, fmt.Errorf("core: LatentTenants without a Reconfig plan to admit them")
	}
	if c.DrainGrace == 0 && (c.Checker != nil || reconfigArmed) {
		// The watchdog's grace, which an armed reconfig plan also needs for
		// bounded epoch drains, even in checkerless record runs.
		c.DrainGrace = simtime.Second
	}
	return c, nil
}
