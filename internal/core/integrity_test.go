package core

import (
	"testing"

	"nba/internal/fault"
	"nba/internal/gen"
	"nba/internal/integrity"
	"nba/internal/invariant"
	"nba/internal/simtime"
	"nba/internal/stats"
	"nba/internal/trace"
)

// corruptionCfg is the acceptance scenario: IPsec with 80% fixed offload so
// the device sees steady aggregates, and device 0 silently corrupting every
// aggregate for a 4 ms window mid-run.
func corruptionCfg() Config {
	cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
	cfg.FaultPlan = fault.Corruption(3*simtime.Millisecond, 7*simtime.Millisecond, 0, 1, 0x5a)
	cfg.Integrity = &integrity.Config{SampleRate: 1}
	return cfg
}

// TestCorruptionSentinelQuarantinesAndEscalates pins the end-to-end
// integrity story: a seeded DeviceCorrupt window with the sentinel armed
// must detect mismatches, quarantine every mismatched aggregate (nothing
// corrupt reaches TX — the corrupt.leak oracle stays silent), keep the
// extended five-term conservation identity, and walk the escalation ladder:
// demote, fail-stop, then probe re-admission once the device behaves.
func TestCorruptionSentinelQuarantinesAndEscalates(t *testing.T) {
	ck := invariant.New()
	cfg := corruptionCfg()
	cfg.Checker = ck
	cfg.Tracer = trace.New(trace.Options{Capacity: 1 << 20, CheckpointInterval: -1})
	r := run(t, cfg)

	if r.IntegrityChecks == 0 {
		t.Fatal("sentinel performed no checks at sample rate 1")
	}
	if r.CorruptionDetected == 0 {
		t.Fatal("no mismatch detected during a probability-1 corruption window")
	}
	if r.QuarantinedPackets == 0 {
		t.Fatal("no packets quarantined despite detected corruption")
	}
	if r.FirstMismatchAt < 3*simtime.Millisecond {
		t.Errorf("first mismatch at %v, before the corruption window opened", r.FirstMismatchAt)
	}
	// It is the first mismatch's time, not a later one's.
	for _, ev := range cfg.Tracer.Events() {
		if ev.Kind == trace.KindIntegrityMismatch {
			if ev.At != r.FirstMismatchAt {
				t.Errorf("FirstMismatchAt = %v, first integrity.mismatch event at %v", r.FirstMismatchAt, ev.At)
			}
			break
		}
	}
	for _, v := range ck.Violations() {
		t.Errorf("invariant violated: %s", v)
	}
	if r.PoolOutstanding != 0 {
		t.Errorf("leak: %d packets outstanding (quarantine must return packets to the pool)", r.PoolOutstanding)
	}
	if len(r.DeviceCorruptionScores) == 0 {
		t.Fatal("report carries no per-device corruption scores")
	}
	// The corruption window closed 3 ms before the end of the run and the
	// device was re-admitted, so some traffic still flows.
	if r.TxGbps < 1.0 {
		t.Errorf("TxGbps = %.2f, run collapsed instead of containing the corruption", r.TxGbps)
	}

	// The trace shows the whole ladder: quarantines, at least one demotion,
	// a fail-stop, and a probe re-admission.
	sum := trace.Summarize(cfg.Tracer.Events())
	if len(sum.Integrities) == 0 {
		t.Fatal("trace summary has no integrity sentinel section")
	}
	ip := sum.Integrities[0]
	if ip.Mismatches == 0 || ip.Quarantined == 0 {
		t.Errorf("summary profile: %d mismatches, %d quarantined, want both > 0", ip.Mismatches, ip.Quarantined)
	}
	if ip.Demotions == 0 {
		t.Error("device was never demoted despite sustained corruption")
	}
	if ip.FailStops == 0 {
		t.Error("device was never fail-stopped despite probability-1 corruption")
	}
	if ip.Readmits == 0 {
		t.Error("fail-stopped device was never re-admitted by the recovery probe")
	}
}

// TestCorruptionRunDeterministic: the corruption scenario — sampling coins,
// injected flips, escalation timing — is part of the run identity.
func TestCorruptionRunDeterministic(t *testing.T) {
	mk := func() (string, *Report) {
		cfg := corruptionCfg()
		cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
		r := run(t, cfg)
		return cfg.Tracer.Digest(), r
	}
	d1, r1 := mk()
	d2, r2 := mk()
	if d1 != d2 {
		t.Fatalf("corruption run digests diverged:\n%s\n%s", d1, d2)
	}
	if r1.QuarantinedPackets != r2.QuarantinedPackets || r1.CorruptionDetected != r2.CorruptionDetected {
		t.Fatalf("corruption counters diverged: %d/%d vs %d/%d",
			r1.QuarantinedPackets, r1.CorruptionDetected,
			r2.QuarantinedPackets, r2.CorruptionDetected)
	}
}

// TestIntegrityArmedCleanRunStable is the other half of the disarm contract
// (nil-Integrity goldens are pinned by the trace golden tests): arming the
// sentinel on a corruption-free run detects nothing, quarantines nothing,
// and is byte-identical across two records.
func TestIntegrityArmedCleanRunStable(t *testing.T) {
	mk := func() (string, *Report) {
		cfg := quickCfg(sprintfConfig(ipsecConfigTpl, "fixed=0.8"), 2e9, 64)
		cfg.Integrity = &integrity.Config{SampleRate: 1}
		cfg.Checker = invariant.New()
		cfg.Tracer = trace.New(trace.Options{Capacity: 1, CheckpointInterval: -1})
		r := run(t, cfg)
		for _, v := range cfg.Checker.Violations() {
			t.Errorf("invariant violated on a clean armed run: %s", v)
		}
		return cfg.Tracer.Digest(), r
	}
	d1, r1 := mk()
	d2, _ := mk()
	if d1 != d2 {
		t.Fatalf("armed corruption-free run not stable across records:\n%s\n%s", d1, d2)
	}
	if r1.IntegrityChecks == 0 {
		t.Error("sentinel performed no checks at sample rate 1")
	}
	if r1.CorruptionDetected != 0 || r1.QuarantinedPackets != 0 {
		t.Errorf("clean run flagged corruption: %d detected, %d quarantined",
			r1.CorruptionDetected, r1.QuarantinedPackets)
	}
}

// TestTenantCountersSumToReportUnderQuarantine checks the derivation lane →
// tenant → report on the one drop class the per-tenant sum had never been
// exercised with: two tenants share the device through a corruption window,
// so the offloading tenant quarantines packets while its co-tenant does not.
// The report's table must equal the sum of the tenant tables field by field,
// and each table must satisfy the five-term identity on its own.
func TestTenantCountersSumToReportUnderQuarantine(t *testing.T) {
	ck := invariant.New()
	cfg := corruptionCfg()
	cfg.GraphConfig, cfg.Generator = "", nil
	cfg.Tenants = []Tenant{
		{Name: "ipv4", GraphConfig: ipv4Config, Share: 1,
			Generator: &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 1}},
		{Name: "ipsec", GraphConfig: sprintfConfig(ipsecConfigTpl, "fixed=0.8"), Share: 1,
			Generator: &gen.UDP4{FrameLen: 64, Flows: 1024, Seed: 3}},
	}
	cfg.Checker = ck
	r := run(t, cfg)

	if r.QuarantinedPackets == 0 {
		t.Fatal("corruption window quarantined nothing; the fifth term is not exercised")
	}
	var sum stats.Counters
	for _, tr := range r.Tenants {
		if !tr.Conserved() {
			t.Errorf("tenant %s not conserved: delivered %d, accounted %d (%+v)",
				tr.Name, tr.RxDelivered, tr.Accounted(), tr.Counters)
		}
		sum.Add(tr.Counters)
	}
	if sum != r.Counters {
		t.Errorf("sum of tenant tables %+v != report table %+v", sum, r.Counters)
	}
	if !r.Conserved() {
		t.Errorf("report not conserved: delivered %d, accounted %d", r.RxDelivered, r.Accounted())
	}
	if q := r.Tenants[0].QuarantinedPackets; q != 0 {
		t.Errorf("CPU-only tenant quarantined %d packets", q)
	}
	if r.Tenants[1].QuarantinedPackets != r.QuarantinedPackets {
		t.Errorf("ipsec tenant quarantined %d, report says %d", r.Tenants[1].QuarantinedPackets, r.QuarantinedPackets)
	}
	for _, v := range ck.Violations() {
		t.Errorf("invariant violated: %s", v)
	}
}
