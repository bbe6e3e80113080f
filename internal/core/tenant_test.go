package core

import (
	"math"
	"strings"
	"testing"

	"nba/internal/gen"
	"nba/internal/invariant"
	"nba/internal/par"
	"nba/internal/simtime"
	"nba/internal/stats"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

const (
	ipv6Config = `FromInput() -> CheckIP6Header() -> LookupIP6Route("entries=4096", "seed=42") -> DecIP6HLIM() -> ToOutput();`

	idsConfig = `FromInput() -> CheckIPHeader() -> IDSMatchAC("alert") -> IDSMatchRE("alert") -> EchoBack() -> ToOutput();`
)

// fourTenants is the canonical co-residency mix: all four sample apps on the
// same workers, queues and GPU, with deliberately unequal shares.
func fourTenants() []Tenant {
	return []Tenant{
		{Name: "ipv4", GraphConfig: ipv4Config, Share: 2,
			Generator: &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 1}},
		{Name: "ipv6", GraphConfig: ipv6Config, Share: 1,
			Generator: &gen.UDP6{FrameLen: 78, Flows: 1024, Seed: 2}},
		{Name: "ipsec", GraphConfig: sprintfConfig(ipsecConfigTpl, "fixed=0.8"), Share: 1,
			Generator: &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 3}},
		{Name: "ids", GraphConfig: idsConfig, Share: 0.5,
			Generator: &gen.UDP4{FrameLen: 256, Flows: 1024, Seed: 4}},
	}
}

func fourTenantCfg() Config {
	return Config{
		Topology:          sysinfo.SingleSocketTopology(4, 2), // 3 workers, 2 ports
		Tenants:           fourTenants(),
		OfferedBpsPerPort: 2e9,
		Warmup:            2 * simtime.Millisecond,
		Duration:          6 * simtime.Millisecond,
		Seed:              7,
	}
}

// TestMultiTenantConservationAcrossApps co-hosts all four sample apps and
// requires the conservation identity to hold per tenant AND globally: no
// tenant's loss may hide behind a co-tenant's surplus.
func TestMultiTenantConservationAcrossApps(t *testing.T) {
	ck := invariant.New()
	cfg := fourTenantCfg()
	cfg.Checker = ck
	cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
	r := run(t, cfg)

	if len(r.Tenants) != 4 {
		t.Fatalf("got %d tenant reports, want 4", len(r.Tenants))
	}
	if !r.Conserved() {
		t.Errorf("global conservation broken: %+v", r.Counters)
	}
	var sum stats.Counters
	for i, tr := range r.Tenants {
		if tr.Name != fourTenants()[i].Name {
			t.Errorf("tenant %d: name %q, want %q", i, tr.Name, fourTenants()[i].Name)
		}
		if tr.RxDelivered == 0 || tr.TxPackets == 0 {
			t.Errorf("tenant %s: no traffic (delivered %d, tx %d)", tr.Name, tr.RxDelivered, tr.TxPackets)
		}
		if !tr.Conserved() {
			t.Errorf("tenant %s conservation broken: %+v", tr.Name, tr.Counters)
		}
		if tr.Digest == "" {
			t.Errorf("tenant %s: empty trace digest despite an attached tracer", tr.Name)
		}
		sum.Add(tr.Counters)
	}
	if sum != r.Counters {
		t.Errorf("tenant sums %+v != global %+v: packets changed tenant mid-flight", sum, r.Counters)
	}
	// The higher-share tenants carry higher offered load: ipv4 (share 2)
	// must see roughly 4x the arrivals of ids (share 0.5).
	if r.Tenants[0].RxDelivered+r.Tenants[0].RxDropped <= r.Tenants[3].RxDelivered+r.Tenants[3].RxDropped {
		t.Errorf("share weighting inverted: ipv4 (share 2) saw %d arrivals, ids (share 0.5) %d",
			r.Tenants[0].RxDelivered+r.Tenants[0].RxDropped,
			r.Tenants[3].RxDelivered+r.Tenants[3].RxDropped)
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d packets outstanding", r.PoolOutstanding)
	}
	for _, v := range ck.Violations() {
		t.Errorf("invariant violation: %+v", v)
	}
}

// tenantDigests runs the 4-tenant mix and returns (global, per-tenant...)
// digests.
func tenantDigests(t *testing.T) []string {
	t.Helper()
	cfg := fourTenantCfg()
	cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
	r := run(t, cfg)
	out := []string{cfg.Tracer.Digest()}
	for _, tr := range r.Tenants {
		out = append(out, tr.Digest)
	}
	return out
}

// TestTenantDigestsStableUnderReplay pins per-tenant attribution to the
// seed: replaying the same multi-tenant run reproduces every tenant's trace
// sub-digest byte-for-byte, co-tenants and all.
func TestTenantDigestsStableUnderReplay(t *testing.T) {
	a := tenantDigests(t)
	b := tenantDigests(t)
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("digest %d diverged across replays:\n%s\n%s", i, a[i], b[i])
		}
	}
	// Distinct tenants must have distinct digests (they trace different
	// apps); identical sub-digests would mean attribution is broken.
	seen := map[string]int{}
	for i, d := range a[1:] {
		if j, dup := seen[d]; dup {
			t.Errorf("tenants %d and %d share a digest %s", j, i, d)
		}
		seen[d] = i
	}
}

// TestTenantDigestsParallelEquivalence runs the same 4-tenant config on 1
// and then 8 concurrent OS threads: a shared-state leak between systems (or
// any wall-clock dependency) would skew the digests.
func TestTenantDigestsParallelEquivalence(t *testing.T) {
	serial := tenantDigests(t)
	results := par.Map(8, 8, func(slot int) []string {
		cfg := fourTenantCfg()
		cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
		sys, err := NewSystem(cfg)
		if err != nil {
			return nil
		}
		r, err := sys.Run()
		if err != nil {
			return nil
		}
		out := []string{cfg.Tracer.Digest()}
		for _, tr := range r.Tenants {
			out = append(out, tr.Digest)
		}
		return out
	})
	for slot, got := range results {
		if got == nil {
			t.Fatalf("slot %d failed to run", slot)
		}
		for i := range serial {
			if got[i] != serial[i] {
				t.Errorf("slot %d digest %d diverged from serial run:\n%s\n%s", slot, i, got[i], serial[i])
			}
		}
	}
}

// TestSingleTenantMatchesLegacyRun is the disarm contract: expressing
// today's single-app config as a one-element Tenants slice must reproduce
// the legacy run bit-for-bit — same trace digest, same report counters.
func TestSingleTenantMatchesLegacyRun(t *testing.T) {
	legacy := quickCfg(ipv4Config, 2e9, 64)
	legacy.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
	lr := run(t, legacy)

	tenant := quickCfg("", 2e9, 64)
	tenant.Generator = nil
	tenant.Tenants = []Tenant{{
		Name:        "only",
		GraphConfig: ipv4Config,
		Generator:   &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 1},
	}}
	tenant.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
	tr := run(t, tenant)

	if a, b := legacy.Tracer.Digest(), tenant.Tracer.Digest(); a != b {
		t.Errorf("single-tenant run diverged from legacy run:\nlegacy %s\ntenant %s", a, b)
	}
	if lr.Counters != tr.Counters {
		t.Errorf("report counters diverged: legacy %+v, tenant %+v", lr.Counters, tr.Counters)
	}
	if len(tr.Tenants) != 1 || tr.Tenants[0].RxDelivered != tr.RxDelivered {
		t.Errorf("single-tenant report section wrong: %+v", tr.Tenants)
	}
	// Explicit tenancy arms a per-tenant digest; it must match across
	// replays but is additional to — not part of — the global digest.
	if tr.Tenants[0].Digest == "" {
		t.Error("single explicit tenant has no per-tenant digest")
	}
}

// TestTenantConfigValidation pins the Tenants/GraphConfig contract.
func TestTenantConfigValidation(t *testing.T) {
	base := func() Config {
		cfg := fourTenantCfg()
		return cfg
	}
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string // in the error
	}{
		{"both GraphConfig and Tenants", func(c *Config) { c.GraphConfig = ipv4Config }, "mutually exclusive"},
		{"duplicate tenant names", func(c *Config) { c.Tenants[1].Name = "ipv4" }, "duplicate tenant name"},
		{"negative share", func(c *Config) { c.Tenants[0].Share = -1 }, "tenant ipv4: Share"},
		{"negative rate scale", func(c *Config) { c.Tenants[0].RateScale = -0.5 }, "tenant ipv4: RateScale"},
		{"NaN share", func(c *Config) { c.Tenants[0].Share = math.NaN() }, "tenant ipv4: Share"},
		{"infinite share", func(c *Config) { c.Tenants[0].Share = math.Inf(1) }, "tenant ipv4: Share"},
		{"NaN rate scale", func(c *Config) { c.Tenants[0].RateScale = math.NaN() }, "tenant ipv4: RateScale"},
		{"infinite rate scale", func(c *Config) { c.Tenants[0].RateScale = math.Inf(1) }, "tenant ipv4: RateScale"},
		{"missing generator", func(c *Config) {
			c.Tenants[2].Generator = nil
			c.Generator = nil
		}, "tenant ipsec: no Generator"},
		{"generator changes with tenants", func(c *Config) {
			c.GeneratorChanges = []GeneratorChange{{At: simtime.Millisecond, Generator: &gen.UDP4{FrameLen: 64, Flows: 2, Seed: 9}}}
		}, "GeneratorChanges"},
		{"tenant generator frame too short", func(c *Config) {
			c.Tenants[0].Generator = &gen.UDP4{FrameLen: 30}
		}, "tenant ipv4: Generator: gen: UDP4 frame length 30"},
		{"inherited generator frame too long", func(c *Config) {
			c.Tenants[2].Generator = nil
			c.Generator = &gen.UDP4{FrameLen: 2000}
		}, "Generator: gen: UDP4 frame length 2000"},
		{"latent tenant generator frame too short", func(c *Config) {
			c.LatentTenants = []Tenant{{Name: "late", GraphConfig: ipv6Config, Generator: &gen.UDP6{FrameLen: 50}}}
		}, "tenant late: Generator: gen: UDP6 frame length 50"},
	}
	for _, tc := range cases {
		cfg := base()
		tc.mutate(&cfg)
		if _, err := NewSystem(cfg); err == nil {
			t.Errorf("%s: NewSystem accepted an invalid config", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// Tenants without an own generator inherit Config.Generator.
	cfg := base()
	cfg.Tenants[2].Generator = nil
	cfg.Generator = &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 3}
	if _, err := NewSystem(cfg); err != nil {
		t.Errorf("generator inheritance rejected: %v", err)
	}
}
