// Package chaos is the deterministic chaos-search driver: it sweeps seeded
// random fault plans (fault.RandomPlan) across the standard applications,
// runs every case under the invariant oracle (internal/invariant) with the
// run trace digested, runs each case twice to cross-check determinism, and
// shrinks any failing plan to a minimal replayable reproducer.
//
// Everything is a pure function of (app, seed, plan): there is no wall
// clock and no global randomness anywhere in the loop, so a failing case is
// fully identified by its reproducer file and a sweep's combined digest is
// a build fingerprint — two checkouts that disagree on it differ in
// behaviour, not in luck.
package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"nba/internal/bench"
	"nba/internal/core"
	"nba/internal/fault"
	"nba/internal/integrity"
	"nba/internal/invariant"
	"nba/internal/overload"
	"nba/internal/reconfig"
	"nba/internal/rng"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

// Apps are the default applications swept (every offload family: lookup,
// crypto, pattern matching).
var Apps = []string{"ipv4", "ipv6", "ipsec", "ids"}

// Run shape shared by every chaos case. Small on purpose: a case must cost
// milliseconds of real time so a sweep can afford hundreds of them, while
// still spanning enough virtual time for the ALB control loop to step and
// for fault windows to open and close.
const (
	caseWarmup   = 200 * simtime.Microsecond
	caseDuration = 3 * simtime.Millisecond
	caseRateBps  = 1.5e9 // per port
	caseWorkers  = 2
	casePorts    = 2
	// caseDrainGrace must cover the slowest legitimate drain, not just the
	// stall limit TaskTimeout (default 5 ms): an unrecovered hang makes every
	// offload batch during drain wait out the stall limit before the
	// device's queue fails back to the CPU, so draining full NIC rings of
	// the most expensive app (IDS) can take over 100 virtual ms. Clean runs
	// never pay this — the drain watchdog firing on a drained run is a free
	// virtual-time jump.
	caseDrainGrace = 200 * simtime.Millisecond
)

// CaseHorizon is the virtual time one chaos run simulates (warmup plus
// measured duration); benchmark/ uses it to convert executed cases into
// simulated seconds.
func CaseHorizon() simtime.Time { return caseWarmup + caseDuration }

// Case is one chaos run: an application (or a co-resident tenant mix), a
// seed (driving the run's own randomness) and a fault plan. The zero
// TaskTimeout selects the framework default; a negative value disables the
// stall watchdog (used by tests to seed a genuine stuck-drain bug).
type Case struct {
	App  string
	Seed uint64
	// Tenants, when non-empty, co-hosts the listed apps as equal-share
	// tenants on one system (App is ignored); the fault plan may then
	// target any tenant's RX queues.
	Tenants     []string
	Plan        *fault.Plan
	TaskTimeout simtime.Time
	// Latent lists apps available for mid-run admission (they become
	// core.Config.LatentTenants named by latentName); Reconfig is the
	// control-plane churn timeline applied alongside the fault plan.
	// Reconfig cases require tenant mode (Tenants non-empty).
	Latent   []string
	Reconfig *reconfig.Plan
	// DisarmSampling arms the integrity sentinel without sampling (rate 0
	// instead of the default 1): the corrupt-leak oracle stays live but
	// nothing is re-executed or quarantined, so a DeviceCorrupt plan becomes
	// a seeded corruption-leak bug (used to prove the oracle catches what
	// the sentinel normally contains).
	DisarmSampling bool
}

// tenantName / latentName are the deterministic tenant names a case's apps
// get inside the run; reconfig plans reference tenants by these names.
func tenantName(i int, app string) string { return fmt.Sprintf("t%d-%s", i, app) }
func latentName(i int, app string) string { return fmt.Sprintf("l%d-%s", i, app) }

// Label names the case in sweep output and digests: the app, or the
// "a+b+..." tenant mix.
func (c Case) Label() string {
	if len(c.Tenants) == 0 {
		return c.App
	}
	return strings.Join(c.Tenants, "+")
}

// Outcome is the observable result of one case.
type Outcome struct {
	// Digest is the run's trace digest (identity of the full event stream).
	Digest string
	// TenantDigests are the per-tenant sub-digests of a multi-tenant case
	// (empty for single-app cases); cross-checked like Digest, so tenant
	// attribution itself is under the determinism oracle.
	TenantDigests []string
	// Violations are the oracle's findings, empty for a correct run.
	Violations []invariant.Violation
	// Suppressed counts violations beyond the oracle's per-check cap.
	Suppressed int
	// Report is the run's measurement report.
	Report *core.Report
}

// Failed reports whether the case violated any invariant.
func (o *Outcome) Failed() bool { return len(o.Violations) > 0 }

// Profile returns the RandomPlan profile matching the chaos run shape.
func Profile() fault.Profile {
	return fault.Profile{
		Horizon: caseWarmup + caseDuration,
		Devices: 1,
		Ports:   casePorts,
		Queues:  caseWorkers,
	}
}

// RandomCase derives the fault plan for (app, seed). The plan depends on
// both, so sweeping several apps over the same seed range still explores
// distinct timelines.
func RandomCase(app string, seed uint64) Case {
	r := rng.New(seed*0x9E3779B97F4A7C15 + appSalt(app))
	return Case{App: app, Seed: seed, Plan: fault.RandomPlan(r, Profile())}
}

// TenantProfile is the RandomPlan profile for an n-tenant case: the queue
// space grows tenant-major, so random RxQueueDown/Up events land on (and
// thereby target) individual tenants' queues.
func TenantProfile(n int) fault.Profile {
	p := Profile()
	p.Queues = caseWorkers * n
	return p
}

// RandomTenantCase derives a co-residency case: the listed apps as
// equal-share tenants with a fault plan drawn from the widened,
// tenant-targeting queue space.
func RandomTenantCase(apps []string, seed uint64) Case {
	c := Case{Tenants: apps, Seed: seed}
	r := rng.New(seed*0x9E3779B97F4A7C15 + appSalt(c.Label()))
	c.Plan = fault.RandomPlan(r, TenantProfile(len(apps)))
	return c
}

// ReconfigProfile is the reconfig.RandomPlan profile for a case's tenant
// shape: epochs land inside the case horizon and reference tenants by their
// in-run names.
func ReconfigProfile(tenants, latent []string) reconfig.Profile {
	initial := make([]string, len(tenants))
	for i, app := range tenants {
		initial[i] = tenantName(i, app)
	}
	lat := make([]string, len(latent))
	for i, app := range latent {
		lat[i] = latentName(i, app)
	}
	return reconfig.Profile{
		Horizon:       CaseHorizon(),
		Initial:       initial,
		Latent:        lat,
		Devices:       1,
		Ports:         casePorts,
		QueueCapacity: topology().RxQueueCapacity,
	}
}

// RandomReconfigCase derives a churn case: the listed apps as co-resident
// tenants, the latent apps admittable mid-run, a fault plan from the tenant
// queue space and a reconfig plan drawn from an independent rng stream (so
// arming churn does not re-roll the fault timeline of the same seed).
func RandomReconfigCase(apps, latent []string, seed uint64) Case {
	c := RandomTenantCase(apps, seed)
	c.Latent = latent
	r := rng.New(seed*0xD1B54A32D192ED03 + appSalt(c.Label()+"+reconfig"))
	c.Reconfig = reconfig.RandomPlan(r, ReconfigProfile(apps, latent))
	return c
}

// CaseProfile returns the plan-validation profile matching the case shape.
func CaseProfile(c Case) fault.Profile {
	if len(c.Tenants) > 1 {
		return TenantProfile(len(c.Tenants))
	}
	return Profile()
}

// appSalt folds the app name into the plan seed (FNV-1a).
func appSalt(app string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(app); i++ {
		h ^= uint64(app[i])
		h *= 1099511628211
	}
	return h
}

// topology returns the chaos machine: one socket, two ports, one GPU.
func topology() *sysinfo.Topology {
	return sysinfo.SingleSocketTopology(caseWorkers+2, casePorts)
}

// Run executes one case under the oracle and returns its outcome. Run
// errors (bad app name, invalid plan) are setup failures, not violations.
func Run(c Case) (*Outcome, error) {
	ck := invariant.New()
	// Capacity 1: the digest covers every event regardless of ring size,
	// and chaos only needs the digest.
	tr := trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
	cfg := core.Config{
		Topology:          topology(),
		WorkersPerSocket:  caseWorkers,
		OfferedBpsPerPort: caseRateBps,
		Warmup:            caseWarmup,
		Duration:          caseDuration,
		Seed:              c.Seed,
		ALBObserve:        100 * simtime.Microsecond,
		ALBUpdate:         500 * simtime.Microsecond,
		Tracer:            tr,
		Checker:           ck,
		DrainGrace:        caseDrainGrace,
		FaultPlan:         c.Plan,
		TaskTimeout:       c.TaskTimeout,
		// Chaos always runs with overload control armed: shedding and the
		// governor are themselves searched (conservation-with-shed,
		// determinism of the shed decisions across the doubled runs).
		Overload: overload.Defaults(),
		// And with the integrity sentinel at full sampling: every DeviceCorrupt
		// window a random plan opens must be detected and quarantined, so a
		// corrupted frame reaching TX (corrupt.leak) or an unbalanced
		// quarantine count (conservation) is a caught violation, and the
		// escalation path itself is under the determinism oracle.
		Integrity: &integrity.Config{SampleRate: 1},
	}
	if c.DisarmSampling {
		cfg.Integrity.SampleRate = 0
	}
	if len(c.Tenants) > 0 {
		for i, app := range c.Tenants {
			// Index prefix keeps names unique when a mix repeats an app.
			t, err := bench.AppTenant(tenantName(i, app), app, "adaptive", 64, c.Seed+1+uint64(i))
			if err != nil {
				return nil, err
			}
			cfg.Tenants = append(cfg.Tenants, t)
		}
		for i, app := range c.Latent {
			// The generator seed stream continues past the active tenants
			// so an admitted tenant's traffic is independent of the mix.
			t, err := bench.AppTenant(latentName(i, app), app, "adaptive", 64, c.Seed+1+uint64(len(c.Tenants)+i))
			if err != nil {
				return nil, err
			}
			cfg.LatentTenants = append(cfg.LatentTenants, t)
		}
		cfg.Reconfig = c.Reconfig
	} else {
		cfgText, err := bench.AppConfig(c.App, "adaptive")
		if err != nil {
			return nil, err
		}
		cfg.GraphConfig = cfgText
		cfg.Generator = bench.GeneratorFor(c.App, 64, c.Seed+1)
	}
	rep, err := bench.Run(cfg)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Digest:     tr.Digest(),
		Violations: ck.Violations(),
		Suppressed: ck.Suppressed(),
		Report:     rep,
	}
	if len(c.Tenants) > 0 {
		for _, trep := range rep.Tenants {
			out.TenantDigests = append(out.TenantDigests, trep.Digest)
		}
	}
	return out, nil
}

// digestLine renders one case's identity line for the combined digest:
// label, seed, global digest, then any per-tenant sub-digests, so a sweep
// fingerprint also pins tenant attribution.
func digestLine(c Case, out *Outcome) string {
	line := fmt.Sprintf("%s %d %s", c.Label(), c.Seed, out.Digest)
	for _, d := range out.TenantDigests {
		line += " " + d
	}
	return line
}

// sameDigests reports whether two outcomes agree on the global digest and
// every tenant sub-digest.
func sameDigests(a, b *Outcome) bool {
	if a.Digest != b.Digest || len(a.TenantDigests) != len(b.TenantDigests) {
		return false
	}
	for i := range a.TenantDigests {
		if a.TenantDigests[i] != b.TenantDigests[i] {
			return false
		}
	}
	return true
}

// RunTwice executes the case twice and cross-checks the trace digests: a
// mismatch means the run is not a pure function of (config, seed, plan) and
// is recorded as a determinism violation on the returned outcome. A drained
// first run hands its mempool storage to the second (core recycles a
// finished System's zone), so the pair also checks a run on recycled memory
// against one on fresh memory — or, when the first itself inherited a zone,
// against one on memory another case dirtied.
func RunTwice(c Case) (*Outcome, error) {
	a, err := Run(c)
	if err != nil {
		return nil, err
	}
	b, err := Run(c)
	if err != nil {
		return nil, err
	}
	if !sameDigests(a, b) {
		a.Violations = append(a.Violations, invariant.Violation{
			Check: invariant.CheckDeterminism,
			Msg:   fmt.Sprintf("trace digests differ across identical runs: %s vs %s", digestLine(c, a), digestLine(c, b)),
		})
	}
	return a, nil
}

// combinedDigest hashes the per-case digests (in sweep order) into one
// build fingerprint.
func combinedDigest(lines []string) string {
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
