package core

import (
	"testing"

	"nba/internal/fault"
	"nba/internal/gen"
	"nba/internal/invariant"
	"nba/internal/reconfig"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

// churnTenant returns a latent tenant running the named sample app, ready to
// be admitted mid-run by a reconfig plan.
func churnTenant(app string) Tenant {
	switch app {
	case "ipv4":
		return Tenant{Name: "churn", GraphConfig: ipv4Config, Share: 1,
			Generator: &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 11}}
	case "ipv6":
		return Tenant{Name: "churn", GraphConfig: ipv6Config, Share: 1,
			Generator: &gen.UDP6{FrameLen: 78, Flows: 1024, Seed: 12}}
	case "ipsec":
		return Tenant{Name: "churn", GraphConfig: sprintfConfig(ipsecConfigTpl, "fixed=0.8"), Share: 1,
			Generator: &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 13}}
	case "ids":
		return Tenant{Name: "churn", GraphConfig: idsConfig, Share: 1,
			Generator: &gen.UDP4{FrameLen: 256, Flows: 1024, Seed: 14}}
	}
	panic("unknown app " + app)
}

// churnCfg is the canonical reconfig scenario: a steady ipv4 victim plus a
// latent tenant running app, admitted at 1/4 of the run, retuned at 1/2 and
// evicted at 3/4 (reconfig.Churn).
func churnCfg(app string) Config {
	const span = 8 * simtime.Millisecond // warmup 2 + duration 6
	return Config{
		Topology: sysinfo.SingleSocketTopology(4, 2), // 3 workers, 2 ports
		Tenants: []Tenant{
			{Name: "victim", GraphConfig: ipv4Config, Share: 2,
				Generator: &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 1}},
		},
		LatentTenants:     []Tenant{churnTenant(app)},
		Reconfig:          reconfig.Churn(span, "churn"),
		OfferedBpsPerPort: 2e9,
		Warmup:            2 * simtime.Millisecond,
		Duration:          6 * simtime.Millisecond,
		Seed:              7,
	}
}

// TestReconfigChurnConservationAcrossApps runs the admit→retune→evict churn
// for each of the four sample apps with the invariant oracle armed: the
// epoch-boundary conservation identity must hold at the evict commit, the
// evicted tenant's report section must be sealed (frozen counters, sealed
// digest, exit time), and nothing may leak or strand.
func TestReconfigChurnConservationAcrossApps(t *testing.T) {
	for _, app := range []string{"ipv4", "ipv6", "ipsec", "ids"} {
		t.Run(app, func(t *testing.T) {
			ck := invariant.New()
			cfg := churnCfg(app)
			cfg.Checker = ck
			cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
			r := run(t, cfg)

			if len(r.Tenants) != 2 {
				t.Fatalf("got %d tenant reports, want 2 (victim + churn)", len(r.Tenants))
			}
			victim, churn := r.Tenants[0], r.Tenants[1]

			if victim.Evicted || victim.Admitted != 0 {
				t.Errorf("victim section corrupted: %+v", victim)
			}
			if victim.RxDelivered == 0 || victim.TxPackets == 0 {
				t.Errorf("victim starved during churn: delivered %d, tx %d", victim.RxDelivered, victim.TxPackets)
			}

			if !churn.Evicted {
				t.Fatal("churned tenant not marked evicted")
			}
			if churn.Admitted != 2*simtime.Millisecond {
				t.Errorf("churn admitted at %v, want 2ms (span/4)", churn.Admitted)
			}
			if churn.EvictedAt < 6*simtime.Millisecond {
				t.Errorf("churn evicted at %v, want >= 6ms (epoch begins at span*3/4)", churn.EvictedAt)
			}
			if churn.Digest == "" {
				t.Error("evicted tenant has no sealed trace digest")
			}
			if churn.RxDelivered == 0 || churn.TxPackets == 0 {
				t.Errorf("churned tenant carried no traffic while admitted: delivered %d, tx %d",
					churn.RxDelivered, churn.TxPackets)
			}
			// Per-tenant and global conservation, sealed section included.
			for _, tr := range r.Tenants {
				if !tr.Conserved() {
					t.Errorf("tenant %s conservation broken: %+v", tr.Name, tr.Counters)
				}
			}
			if !r.Conserved() {
				t.Errorf("global conservation broken: %+v", r.Counters)
			}
			if r.PoolOutstanding != 0 {
				t.Errorf("leak: %d packets outstanding after evict", r.PoolOutstanding)
			}
			for _, v := range ck.Violations() {
				t.Errorf("invariant violation: %+v", v)
			}
		})
	}
}

// TestReconfigChurnDigestsStableUnderReplay replays the churn scenario and
// requires every digest — global, victim, and the evicted tenant's sealed
// sub-digest — to reproduce byte-for-byte: the plan is part of run identity.
func TestReconfigChurnDigestsStableUnderReplay(t *testing.T) {
	mk := func() []string {
		cfg := churnCfg("ipsec")
		cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
		r := run(t, cfg)
		out := []string{cfg.Tracer.Digest()}
		for _, tr := range r.Tenants {
			out = append(out, tr.Digest)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("digest %d diverged across replays:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestReconfigEmptyPlanGoldensUnchanged is the disarm contract: an armed but
// empty plan must leave the event timeline — and therefore every digest and
// counter — byte-identical to an unconfigured run.
func TestReconfigEmptyPlanGoldensUnchanged(t *testing.T) {
	nilCfg := fourTenantCfg()
	nilCfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
	nilR := run(t, nilCfg)
	nilDigest := nilCfg.Tracer.Digest()

	emptyCfg := fourTenantCfg()
	emptyCfg.Reconfig = &reconfig.Plan{}
	emptyCfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
	emptyR := run(t, emptyCfg)

	if d := emptyCfg.Tracer.Digest(); d != nilDigest {
		t.Errorf("empty reconfig plan perturbed the trace digest:\nnil   %s\nempty %s", nilDigest, d)
	}
	if nilR.Counters != emptyR.Counters {
		t.Errorf("empty plan perturbed counters: nil %+v, empty %+v", nilR.Counters, emptyR.Counters)
	}
	for i := range nilR.Tenants {
		if nilR.Tenants[i].Digest != emptyR.Tenants[i].Digest {
			t.Errorf("tenant %d sub-digest perturbed by empty plan", i)
		}
	}
}

// TestHotUnplugWhileHungRescue unplugs a device that is mid-Hang with tasks
// parked on it: the epoch's force-rescue (Device.AbortAll at the drain-grace
// deadline) must evacuate every parked task through the CPU-fallback path —
// no strand, no leak, no reliance on the per-task completion timeout (which
// never fires here: the abort completes the tasks first).
func TestHotUnplugWhileHungRescue(t *testing.T) {
	ck := invariant.New()
	cfg := Config{
		Topology: sysinfo.SingleSocketTopology(4, 2),
		Tenants: []Tenant{
			{Name: "ipsec", GraphConfig: sprintfConfig(ipsecConfigTpl, "fixed=0.8"),
				Generator: &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 1}},
		},
		// 0.4 Gbps per port: below the ~1 Gbps CPU-only IPsec capacity of
		// this topology, so the datapath still drains after losing its GPU.
		OfferedBpsPerPort: 0.4e9,
		Warmup:            2 * simtime.Millisecond,
		Duration:          10 * simtime.Millisecond,
		Seed:              7,
		Checker:           ck,
		DrainGrace:        500 * simtime.Microsecond,
		FaultPlan: &fault.Plan{Events: []fault.Event{
			{At: 4 * simtime.Millisecond, Kind: fault.DeviceHang, Device: 0},
		}},
		Reconfig: &reconfig.Plan{Events: []reconfig.Event{
			{At: 5 * simtime.Millisecond, Kind: reconfig.DeviceUnplug, Device: 0},
		}},
	}
	r := run(t, cfg)

	if r.FailedTasks == 0 {
		t.Error("no aborted tasks despite unplugging a hung device with parked work")
	}
	if r.FallbackPackets == 0 {
		t.Error("no packets rescued onto the CPU by the unplug epoch")
	}
	if r.TimedOutTasks != 0 {
		t.Errorf("%d timeouts; the abort must complete parked tasks before any timeout fires", r.TimedOutTasks)
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("strand: %d packets outstanding after hot-unplug", r.PoolOutstanding)
	}
	// After the unplug the socket has no device: the fixed-0.8 offload demand
	// all lands on the CPU, which still has to carry real traffic.
	if r.TxGbps < 0.5 {
		t.Errorf("TxGbps = %.2f, want CPU to carry load after the unplug", r.TxGbps)
	}
	for _, v := range ck.Violations() {
		t.Errorf("invariant violation: %+v", v)
	}
}

// TestReconfigSameTickAsFaultDigestStable pins the tie-break when a fault
// event and a reconfig epoch land on the same virtual tick: faults apply
// first (Run registers the fault timeline before the reconfig pump), the
// composed outcome is deterministic, and ten replays produce one digest.
func TestReconfigSameTickAsFaultDigestStable(t *testing.T) {
	const tick = 2 * simtime.Millisecond
	mk := func(withReconfig bool) string {
		cfg := Config{
			Topology: sysinfo.SingleSocketTopology(4, 2),
			Tenants: []Tenant{
				{Name: "a", GraphConfig: ipv4Config, Share: 2,
					Generator: &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 1}},
				{Name: "b", GraphConfig: ipv6Config, Share: 1,
					Generator: &gen.UDP6{FrameLen: 78, Flows: 1024, Seed: 2}},
			},
			OfferedBpsPerPort: 2e9,
			Warmup:            simtime.Millisecond,
			Duration:          3 * simtime.Millisecond,
			Seed:              7,
			FaultPlan: &fault.Plan{Events: []fault.Event{
				{At: tick, Kind: fault.RateBurst, RateFactor: 2},
			}},
		}
		if withReconfig {
			cfg.Reconfig = &reconfig.Plan{Events: []reconfig.Event{
				{At: tick, Kind: reconfig.ShareRetune, Tenant: "b", Share: 3},
				{At: tick, Kind: reconfig.QueueResize, Port: -1, Capacity: 512},
			}}
		}
		cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
		run(t, cfg)
		return cfg.Tracer.Digest()
	}

	want := mk(true)
	for i := 0; i < 9; i++ {
		if d := mk(true); d != want {
			t.Fatalf("replay %d: same-tick fault+reconfig digest diverged:\n%s\n%s", i, d, want)
		}
	}
	if mk(false) == want {
		t.Error("same-tick reconfig epochs left no mark on the digest; they are not being applied")
	}
}

// TestReconfigConfigValidation pins the Config-level reconfig contract.
func TestReconfigConfigValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"reconfig without explicit tenants", func(c *Config) {
			c.Tenants = nil
			c.LatentTenants = nil
			c.GraphConfig = ipv4Config
			c.Generator = &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 1}
		}},
		{"latent tenants without a plan", func(c *Config) { c.Reconfig = nil }},
		{"admit of unknown tenant", func(c *Config) {
			c.Reconfig = &reconfig.Plan{Events: []reconfig.Event{
				{At: simtime.Millisecond, Kind: reconfig.TenantAdmit, Tenant: "ghost"},
			}}
		}},
		{"latent name colliding with an active tenant", func(c *Config) {
			c.LatentTenants[0].Name = "victim"
		}},
		{"double evict", func(c *Config) {
			c.Reconfig = &reconfig.Plan{Events: []reconfig.Event{
				{At: 2 * simtime.Millisecond, Kind: reconfig.TenantAdmit, Tenant: "churn"},
				{At: 4 * simtime.Millisecond, Kind: reconfig.TenantEvict, Tenant: "churn"},
				{At: 6 * simtime.Millisecond, Kind: reconfig.TenantEvict, Tenant: "churn"},
			}}
		}},
	}
	for _, tc := range cases {
		cfg := churnCfg("ipv4")
		tc.mutate(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("%s: NewSystem accepted an invalid reconfig config", tc.name)
		}
	}
}
