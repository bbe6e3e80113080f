package chaos

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nba/internal/fault"
	"nba/internal/invariant"
	"nba/internal/reconfig"
	"nba/internal/simtime"
)

const ms = simtime.Millisecond

// TestOracleFaultFreeCleans is the false-positive guard: with no fault plan
// at all, every app must pass every invariant. An oracle that cries wolf on
// healthy runs is worse than no oracle.
func TestOracleCleanOnFaultFreeRuns(t *testing.T) {
	for _, app := range Apps {
		out, err := Run(Case{App: app, Seed: 3})
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if out.Failed() {
			t.Errorf("%s fault-free run violated invariants: %v", app, out.Violations)
		}
		if out.Report.TxPackets == 0 {
			t.Errorf("%s fault-free run transmitted nothing", app)
		}
	}
}

// TestOracleCleanUnderRandomFaults: the shipped tree must survive random
// fault plans without violations, and identically across repeated runs.
func TestOracleCleanUnderRandomFaults(t *testing.T) {
	for _, app := range Apps {
		for seed := uint64(10); seed < 13; seed++ {
			c := RandomCase(app, seed)
			out, err := RunTwice(c)
			if err != nil {
				t.Fatalf("%s/%d: %v", app, seed, err)
			}
			if out.Failed() {
				t.Errorf("%s/%d violated invariants under plan %v: %v",
					app, seed, c.Plan.Events, out.Violations)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	c := RandomCase("ipv4", 99)
	a, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("same case, different digests: %s vs %s", a.Digest, b.Digest)
	}
}

// --- shrinker ---

// hangPredicate is a synthetic failure oracle for fast shrinker tests: the
// plan "fails" iff it hangs device 0 without ever recovering it.
func hangPredicate(p *fault.Plan) bool {
	hungAt := simtime.Time(-1)
	for _, ev := range p.Sorted() {
		switch {
		case ev.Kind == fault.DeviceHang && ev.Device == 0:
			hungAt = ev.At
		case ev.Kind == fault.DeviceRecover && ev.Device == 0 && hungAt >= 0:
			hungAt = -1
		}
	}
	return hungAt >= 0
}

func validForProfile(p *fault.Plan) bool {
	prof := Profile()
	return p.Validate(prof.Devices, prof.Ports, prof.Queues) == nil
}

func TestShrinkToMinimal(t *testing.T) {
	// A noisy plan: an unrecovered hang (the actual bug trigger) buried
	// under a slowdown window, a queue flap and a rate burst.
	noisy := &fault.Plan{Events: []fault.Event{
		{At: 300 * simtime.Microsecond, Kind: fault.DeviceSlowdown, Device: 0, KernelFactor: 4, CopyFactor: 4},
		{At: 500 * simtime.Microsecond, Kind: fault.DeviceRecover, Device: 0},
		{At: 600 * simtime.Microsecond, Kind: fault.RxQueueDown, Port: 1, Queue: 0},
		{At: 1 * ms, Kind: fault.DeviceHang, Device: 0},
		{At: 1200 * simtime.Microsecond, Kind: fault.RxQueueUp, Port: 1, Queue: 0},
		{At: 2 * ms, Kind: fault.RateBurst, RateFactor: 3},
		{At: 2500 * simtime.Microsecond, Kind: fault.RateBurst, RateFactor: 1},
	}}
	if !hangPredicate(noisy) {
		t.Fatal("noisy plan should satisfy the predicate")
	}
	shrunk, runs := Shrink(noisy, hangPredicate, validForProfile, 200)
	if len(shrunk.Events) > 2 {
		t.Fatalf("shrunk to %d events, want <= 2: %v (%d runs)", len(shrunk.Events), shrunk.Events, runs)
	}
	if !hangPredicate(shrunk) {
		t.Fatalf("shrunk plan no longer fails: %v", shrunk.Events)
	}
	if !validForProfile(shrunk) {
		t.Fatalf("shrunk plan invalid: %v", shrunk.Events)
	}
}

func TestShrinkFixedPoint(t *testing.T) {
	minimal := &fault.Plan{Events: []fault.Event{
		{At: 1 * ms, Kind: fault.DeviceHang, Device: 0},
	}}
	shrunk, _ := Shrink(minimal, hangPredicate, validForProfile, 100)
	if len(shrunk.Events) != 1 || shrunk.Events[0] != minimal.Events[0] {
		t.Fatalf("minimal plan is not a fixed point: %v", shrunk.Events)
	}
}

func TestShrinkHalvesMagnitudes(t *testing.T) {
	// Predicate: any slowdown with kernel factor > 2 (so halving 8 → 4.5 →
	// 2.75 … should stop at the last value above 2).
	pred := func(p *fault.Plan) bool {
		for _, ev := range p.Events {
			if ev.Kind == fault.DeviceSlowdown && ev.KernelFactor > 2 {
				return true
			}
		}
		return false
	}
	plan := &fault.Plan{Events: []fault.Event{
		{At: 1 * ms, Kind: fault.DeviceSlowdown, Device: 0, KernelFactor: 8, CopyFactor: 8},
	}}
	shrunk, _ := Shrink(plan, pred, validForProfile, 100)
	got := shrunk.Events[0].KernelFactor
	if got >= 8 || got <= 2 {
		t.Fatalf("factor not shrunk toward the threshold: %v", got)
	}
}

func TestShrinkRespectsBudget(t *testing.T) {
	calls := 0
	pred := func(p *fault.Plan) bool { calls++; return hangPredicate(p) }
	noisy := &fault.Plan{Events: []fault.Event{
		{At: 1 * ms, Kind: fault.DeviceHang, Device: 0},
		{At: 500 * simtime.Microsecond, Kind: fault.RateBurst, RateFactor: 2},
		{At: 700 * simtime.Microsecond, Kind: fault.RateBurst, RateFactor: 1},
	}}
	_, runs := Shrink(noisy, pred, validForProfile, 3)
	if runs > 3 || calls > 3 {
		t.Fatalf("budget exceeded: runs %d, calls %d", runs, calls)
	}
}

// --- reproducers ---

func TestReproRoundTrip(t *testing.T) {
	c := Case{
		App: "ipsec", Seed: 17, TaskTimeout: -1,
		Plan: &fault.Plan{Events: []fault.Event{
			{At: 1 * ms, Kind: fault.DeviceHang, Device: 0},
			{At: 2 * ms, Kind: fault.RxQueueDown, Port: 1, Queue: -1},
			{At: 2500 * simtime.Microsecond, Kind: fault.DeviceSlowdown, Device: 0, KernelFactor: 2.5, CopyFactor: 1.5},
		}},
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.App != c.App || got.Seed != c.Seed || got.TaskTimeout != c.TaskTimeout {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Plan.Events) != len(c.Plan.Events) {
		t.Fatalf("event count mismatch: %d vs %d", len(got.Plan.Events), len(c.Plan.Events))
	}
	for i := range c.Plan.Events {
		if got.Plan.Events[i] != c.Plan.Events[i] {
			t.Fatalf("event %d mismatch: %+v vs %+v", i, got.Plan.Events[i], c.Plan.Events[i])
		}
	}
}

// TestReproGolden pins the reproducer file format byte for byte: files
// attached to old bug reports must keep replaying, and WriteRepro must keep
// writing what ReadRepro of any earlier build accepts.
func TestReproGolden(t *testing.T) {
	const us = simtime.Microsecond
	cases := []struct {
		file string
		c    Case
	}{
		{"repro-fault.json", Case{
			App: "ipsec", Seed: 17, TaskTimeout: -1,
			Plan: &fault.Plan{Events: []fault.Event{
				{At: 1 * ms, Kind: fault.DeviceHang, Device: 0},
				{At: 1200 * us, Kind: fault.RxQueueDown, Port: 1, Queue: -1},
				{At: 1500 * us, Kind: fault.RateBurst, RateFactor: 2.5},
				{At: 2 * ms, Kind: fault.DeviceRecover, Device: 0},
				{At: 2500 * us, Kind: fault.DeviceSlowdown, Device: 0, KernelFactor: 2.5, CopyFactor: 1.5},
			}},
		}},
		{"repro-corrupt.json", Case{
			App: "ipv4", Seed: 3, DisarmSampling: true,
			Plan: fault.Corruption(300*us, 2*ms, 0, 0.5, 0xa5),
		}},
		{"repro-reconfig.json", Case{
			Tenants: []string{"ipv4", "ids"}, Latent: []string{"ipv6"}, Seed: 31,
			Plan: &fault.Plan{Events: []fault.Event{
				{At: 500 * us, Kind: fault.RxQueueDown, Port: 0, Queue: 3},
				{At: 900 * us, Kind: fault.RxQueueUp, Port: 0, Queue: 3},
			}},
			Reconfig: &reconfig.Plan{Events: []reconfig.Event{
				{At: 200 * us, Kind: reconfig.TenantAdmit, Tenant: "l0-ipv6", Share: 0.5},
				{At: 400 * us, Kind: reconfig.ShareRetune, Tenant: "t1-ids", Share: 2},
				{At: 600 * us, Kind: reconfig.DeviceUnplug, Device: 0},
				{At: 800 * us, Kind: reconfig.DevicePlug, Device: 0},
				{At: 1 * ms, Kind: reconfig.TenantEvict, Tenant: "t0-ipv4"},
				{At: 1400 * us, Kind: reconfig.QueueResize, Port: -1, Capacity: 64},
			}},
		}},
	}
	for _, tc := range cases {
		golden := filepath.Join("testdata", tc.file)
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), tc.file)
		if err := WriteRepro(path, tc.c); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: WriteRepro wrote\n%s\nwant\n%s", tc.file, got, want)
		}
		back, err := ReadRepro(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, tc.c) {
			t.Errorf("%s: ReadRepro = %+v, want %+v", tc.file, back, tc.c)
		}
	}
}

// --- reconfig churn cases ---

// TestOracleCleanUnderRandomReconfig: random control-plane churn (admits,
// evicts, retunes, hot-plug, resizes) over co-resident tenant mixes must
// pass every invariant — including the epoch conservation and orphaned-lane
// checks — and reproduce digests across the doubled runs.
func TestOracleCleanUnderRandomReconfig(t *testing.T) {
	for seed := uint64(20); seed < 24; seed++ {
		c := RandomReconfigCase([]string{"ipv4", "ids"}, []string{"ipv6"}, seed)
		out, err := RunTwice(c)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.Failed() {
			t.Errorf("seed %d violated invariants under fault %v + reconfig %v: %v",
				seed, c.Plan.Events, c.Reconfig.Events, out.Violations)
		}
	}
}

// evictPredicate is the synthetic failure oracle for reconfig shrinking: a
// plan "fails" iff it ever evicts tenant t0-ipv4.
func evictPredicate(p *reconfig.Plan) bool {
	for _, ev := range p.Events {
		if ev.Kind == reconfig.TenantEvict && ev.Tenant == "t0-ipv4" {
			return true
		}
	}
	return false
}

func TestShrinkReconfigToMinimal(t *testing.T) {
	prof := ReconfigProfile([]string{"ipv4", "ids"}, []string{"ipv6"})
	valid := func(p *reconfig.Plan) bool {
		return p.Validate(prof.Initial, prof.Latent, prof.Devices, prof.Ports) == nil
	}
	// The triggering evict buried under an admit+evict lifecycle, a retune,
	// a device bounce and a resize. The latent lifecycle's single removals
	// are invalid (evict without admit), so only the pair removal strips it.
	noisy := &reconfig.Plan{Events: []reconfig.Event{
		{At: 200 * simtime.Microsecond, Kind: reconfig.TenantAdmit, Tenant: "l0-ipv6"},
		{At: 400 * simtime.Microsecond, Kind: reconfig.ShareRetune, Tenant: "t1-ids", Share: 2},
		{At: 600 * simtime.Microsecond, Kind: reconfig.DeviceUnplug, Device: 0},
		{At: 800 * simtime.Microsecond, Kind: reconfig.DevicePlug, Device: 0},
		{At: 1 * ms, Kind: reconfig.TenantEvict, Tenant: "t0-ipv4"},
		{At: 1200 * simtime.Microsecond, Kind: reconfig.TenantEvict, Tenant: "l0-ipv6"},
		{At: 1400 * simtime.Microsecond, Kind: reconfig.QueueResize, Port: 0, Capacity: 64},
	}}
	if !evictPredicate(noisy) || !valid(noisy) {
		t.Fatal("noisy plan must start failing and valid")
	}
	shrunk, runs := ShrinkReconfig(noisy, evictPredicate, valid, 200)
	if len(shrunk.Events) != 1 {
		t.Fatalf("shrunk to %d events, want 1: %v (%d runs)", len(shrunk.Events), shrunk.Events, runs)
	}
	if !evictPredicate(shrunk) || !valid(shrunk) {
		t.Fatalf("shrunk plan broken: %v", shrunk.Events)
	}
}

func TestReconfigReproRoundTrip(t *testing.T) {
	c := RandomReconfigCase([]string{"ipsec", "ipv6"}, []string{"ids"}, 31)
	if len(c.Reconfig.Events) == 0 {
		t.Fatal("seed 31 generated no reconfig events; pick another seed")
	}
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Label() != c.Label() || got.Seed != c.Seed {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Latent) != len(c.Latent) || got.Latent[0] != c.Latent[0] {
		t.Fatalf("latent pool mismatch: %v vs %v", got.Latent, c.Latent)
	}
	if len(got.Reconfig.Events) != len(c.Reconfig.Events) {
		t.Fatalf("reconfig event count mismatch: %d vs %d", len(got.Reconfig.Events), len(c.Reconfig.Events))
	}
	for i := range c.Reconfig.Events {
		if got.Reconfig.Events[i] != c.Reconfig.Events[i] {
			t.Fatalf("reconfig event %d mismatch: %+v vs %+v", i, got.Reconfig.Events[i], c.Reconfig.Events[i])
		}
	}
	// The round-tripped case replays to the identical digest.
	a, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(got)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDigests(a, b) {
		t.Fatal("round-tripped reconfig case replays to a different digest")
	}
}

// TestReconfigSweepCleanAndDeterministic: a small armed sweep must be clean
// and reproduce its combined digest, serially and in parallel.
func TestReconfigSweepCleanAndDeterministic(t *testing.T) {
	opts := SweepOptions{Seeds: 3, BaseSeed: 40, Reconfig: true}
	a, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cases != 3 {
		t.Fatalf("ran %d cases, want 3", a.Cases)
	}
	for _, f := range a.Failures {
		t.Errorf("case %s/%d failed: %v (fault %v, reconfig %v)", f.Case.Label(), f.Case.Seed,
			f.Outcome.Violations, f.Case.Plan.Events, f.Case.Reconfig.Events)
	}
	opts.Parallelism = 4
	b, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("reconfig sweep digest not reproducible across parallelism: %s vs %s", a.Digest, b.Digest)
	}
}

// --- the end-to-end seeded-bug demonstration ---

// TestSeededBugShrinksToMinimalRepro seeds a genuine bug configuration —
// the rescue timeout disabled while a device hangs and never recovers — in
// a noisy plan, confirms the oracle catches the stuck drain, shrinks the
// plan with real runs, and verifies the written reproducer replays to the
// same violation.
func TestSeededBugShrinksToMinimalRepro(t *testing.T) {
	if testing.Short() {
		t.Skip("stuck-drain runs pay the full watchdog grace window")
	}
	noisy := &fault.Plan{Events: []fault.Event{
		{At: 400 * simtime.Microsecond, Kind: fault.RateBurst, RateFactor: 2},
		{At: 900 * simtime.Microsecond, Kind: fault.RateBurst, RateFactor: 1},
		{At: 1 * ms, Kind: fault.DeviceHang, Device: 0},
		{At: 1400 * simtime.Microsecond, Kind: fault.RxQueueDown, Port: 0, Queue: 1},
		{At: 1800 * simtime.Microsecond, Kind: fault.RxQueueUp, Port: 0, Queue: 1},
	}}
	bug := Case{App: "ipv4", Seed: 5, Plan: noisy, TaskTimeout: -1}

	out, err := RunTwice(bug)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Failed() {
		t.Fatal("seeded bug produced no violation")
	}
	sawStuck := false
	for _, v := range out.Violations {
		if v.Check == invariant.CheckDrainStuck {
			sawStuck = true
		}
	}
	if !sawStuck {
		t.Fatalf("expected a drain.stuck violation, got %v", out.Violations)
	}

	stillFails := func(p *fault.Plan) bool {
		o, err := Run(Case{App: bug.App, Seed: bug.Seed, Plan: p, TaskTimeout: bug.TaskTimeout})
		return err == nil && o.Failed()
	}
	shrunk, runs := Shrink(noisy, stillFails, validForProfile, 40)
	if len(shrunk.Events) > 2 {
		t.Fatalf("shrunk to %d events, want <= 2: %v (%d runs)", len(shrunk.Events), shrunk.Events, runs)
	}
	hasHang := false
	for _, ev := range shrunk.Events {
		if ev.Kind == fault.DeviceHang {
			hasHang = true
		}
	}
	if !hasHang {
		t.Fatalf("shrunk plan lost the triggering hang: %v", shrunk.Events)
	}

	// The reproducer file replays to the same violation.
	path := filepath.Join(t.TempDir(), "repro.json")
	minimal := Case{App: bug.App, Seed: bug.Seed, Plan: shrunk, TaskTimeout: bug.TaskTimeout}
	if err := WriteRepro(path, minimal); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := Run(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.Failed() {
		t.Fatal("replayed reproducer no longer fails")
	}
	t.Logf("shrunk %d -> %d events in %d probe runs", len(noisy.Events), len(shrunk.Events), runs)
}

// --- sweep ---

func TestSweepCleanAndDeterministic(t *testing.T) {
	opts := SweepOptions{Apps: []string{"ipv4", "ids"}, Seeds: 2, BaseSeed: 100}
	a, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cases != 4 {
		t.Fatalf("ran %d cases, want 4", a.Cases)
	}
	if len(a.Failures) != 0 {
		for _, f := range a.Failures {
			t.Errorf("case %s/%d failed: %v (plan %v)", f.Case.App, f.Case.Seed, f.Outcome.Violations, f.Case.Plan.Events)
		}
		t.Fatal("sweep found violations on the shipped tree")
	}
	b, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest != b.Digest {
		t.Fatalf("sweep digest not reproducible: %s vs %s", a.Digest, b.Digest)
	}
}

// TestSweepParallelEquivalence is the tentpole contract: the same sweep at
// parallelism 1, 2 and 8 produces byte-identical per-case digests and the
// identical combined digest — the parallel runner must be unobservable in
// every output.
func TestSweepParallelEquivalence(t *testing.T) {
	opts := SweepOptions{Apps: []string{"ipv4", "ids"}, Seeds: 2, BaseSeed: 100, Parallelism: 1}
	serial, err := Sweep(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.CaseDigests) != serial.Cases {
		t.Fatalf("%d case digests for %d cases", len(serial.CaseDigests), serial.Cases)
	}
	for _, parallelism := range []int{2, 8} {
		opts.Parallelism = parallelism
		par, err := Sweep(opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		if par.Digest != serial.Digest {
			t.Errorf("parallelism %d: combined digest diverged:\nserial   %s\nparallel %s",
				parallelism, serial.Digest, par.Digest)
		}
		for i, d := range par.CaseDigests {
			if d != serial.CaseDigests[i] {
				t.Errorf("parallelism %d: case %d diverged:\nserial   %s\nparallel %s",
					parallelism, i, serial.CaseDigests[i], d)
			}
		}
		if par.Cases != serial.Cases || len(par.Failures) != len(serial.Failures) {
			t.Errorf("parallelism %d: cases %d/%d failures %d/%d", parallelism,
				par.Cases, serial.Cases, len(par.Failures), len(serial.Failures))
		}
	}
}

// TestSweepParallelStress hammers the parallel sweep under the race detector
// (scripts/check.sh runs the package with -race): many concurrent full
// simulator cases sharing nothing but the process-wide immutable caches.
func TestSweepParallelStress(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel stress is for the -race gate")
	}
	res, err := Sweep(SweepOptions{Apps: Apps, Seeds: 2, BaseSeed: 1, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cases != 2*len(Apps) {
		t.Fatalf("ran %d cases, want %d", res.Cases, 2*len(Apps))
	}
	for _, f := range res.Failures {
		t.Errorf("case %s/%d failed: %v", f.Case.App, f.Case.Seed, f.Outcome.Violations)
	}
}

// --- corruption / integrity ---

// TestCorruptionQuarantineClean: a seeded corruption window with sentinel
// sampling armed (the sweep default) must be contained — mismatches detected,
// packets quarantined, no invariant violation — and byte-identical across
// the RunTwice digest cross-check.
func TestCorruptionQuarantineClean(t *testing.T) {
	c := Case{
		App: "ipv4", Seed: 7,
		Plan: fault.Corruption(500*simtime.Microsecond, 2*ms, 0, 0.6, 0xa5),
	}
	out, err := RunTwice(c)
	if err != nil {
		t.Fatal(err)
	}
	if out.Failed() {
		t.Fatalf("armed corruption run violated invariants: %v", out.Violations)
	}
	if out.Report.CorruptionDetected == 0 {
		t.Fatal("sentinel detected no corruption under a 0.6-probability window")
	}
	if out.Report.QuarantinedPackets == 0 {
		t.Fatal("no packets quarantined despite detected corruption")
	}
}

// TestCorruptionLeakCaughtAndShrinks seeds the corruption-leak bug: the same
// corruption window with sentinel sampling disarmed, so tainted packets reach
// TX. The corrupt.leak oracle must catch it, the shrinker must reduce the
// noisy plan while keeping the corruption window, and the written reproducer
// must replay to the same violation with DisarmSampling preserved.
func TestCorruptionLeakCaughtAndShrinks(t *testing.T) {
	noisy := &fault.Plan{Events: []fault.Event{
		{At: 300 * simtime.Microsecond, Kind: fault.RateBurst, RateFactor: 2},
		{At: 700 * simtime.Microsecond, Kind: fault.RateBurst, RateFactor: 1},
		{At: 500 * simtime.Microsecond, Kind: fault.DeviceCorrupt, Device: 0, CorruptProb: 0.6, FlipPattern: 0xa5},
		{At: 2 * ms, Kind: fault.CorruptRecover, Device: 0},
		{At: 1 * ms, Kind: fault.RxQueueDown, Port: 1, Queue: 0},
		{At: 1400 * simtime.Microsecond, Kind: fault.RxQueueUp, Port: 1, Queue: 0},
	}}
	bug := Case{App: "ipv4", Seed: 7, Plan: noisy, DisarmSampling: true}

	out, err := RunTwice(bug)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Failed() {
		t.Fatal("disarmed corruption run produced no violation")
	}
	sawLeak := false
	for _, v := range out.Violations {
		if v.Check == invariant.CheckCorruptLeak {
			sawLeak = true
		}
	}
	if !sawLeak {
		t.Fatalf("expected a corrupt.leak violation, got %v", out.Violations)
	}

	stillFails := func(p *fault.Plan) bool {
		o, err := Run(Case{App: bug.App, Seed: bug.Seed, Plan: p, DisarmSampling: true})
		return err == nil && o.Failed()
	}
	shrunk, runs := Shrink(noisy, stillFails, validForProfile, 40)
	if len(shrunk.Events) > 2 {
		t.Fatalf("shrunk to %d events, want <= 2: %v (%d runs)", len(shrunk.Events), shrunk.Events, runs)
	}
	hasCorrupt := false
	for _, ev := range shrunk.Events {
		if ev.Kind == fault.DeviceCorrupt {
			hasCorrupt = true
		}
	}
	if !hasCorrupt {
		t.Fatalf("shrunk plan lost the corruption window: %v", shrunk.Events)
	}

	path := filepath.Join(t.TempDir(), "repro.json")
	minimal := Case{App: bug.App, Seed: bug.Seed, Plan: shrunk, DisarmSampling: true}
	if err := WriteRepro(path, minimal); err != nil {
		t.Fatal(err)
	}
	replayed, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if !replayed.DisarmSampling {
		t.Fatal("reproducer lost DisarmSampling")
	}
	ro, err := Run(replayed)
	if err != nil {
		t.Fatal(err)
	}
	if !ro.Failed() {
		t.Fatal("replayed reproducer no longer fails")
	}
	t.Logf("shrunk %d -> %d events in %d probe runs", len(noisy.Events), len(shrunk.Events), runs)
}
