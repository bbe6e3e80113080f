package bench

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"nba/internal/core"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

// Example of using the harness programmatically.
func ExampleByID() {
	e, _ := ByID("tab3")
	fmt.Println(e.ID)
	// Output: tab3
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"tab1", "tab3", "fig1", "fig2", "composition", "fig9", "fig10",
		"fig11", "fig12", "fig13", "fig14",
		"ablation-datablock", "ablation-aggsize", "ablation-phi",
		"ablation-numa", "ablation-boundedlat", "alb-reconverge",
		"faults", "overload", "tenants", "reconfig", "integrity",
	}
	for _, id := range want {
		e, err := ByID(id)
		if err != nil {
			t.Errorf("missing experiment %q: %v", id, err)
			continue
		}
		if e.Title == "" || e.Paper == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete: %+v", id, e)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(All()) < len(want) {
		t.Errorf("All() returned %d experiments, want >= %d", len(All()), len(want))
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].ID > all[i].ID {
			t.Fatalf("All() not sorted: %q before %q", all[i-1].ID, all[i].ID)
		}
	}
}

func TestAppConfigsParseAndBuild(t *testing.T) {
	for _, app := range []string{"l2fwd", "echo", "ipv4", "ipv6", "ipsec", "ids"} {
		cfg, err := AppRun(app, "cpu", 128, 1)
		if err != nil {
			t.Fatalf("AppRun(%s): %v", app, err)
		}
		// A short run proves the configuration builds and executes.
		cfg.OfferedBpsPerPort = 5e8
		cfg.Warmup, cfg.Duration = 200*simtime.Microsecond, simtime.Millisecond
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("Run(%s): %v", app, err)
		}
		if r.TxGbps <= 0 {
			t.Errorf("%s: zero throughput", app)
		}
	}
	if _, err := AppConfig("nope", "cpu"); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestGeneratorFor(t *testing.T) {
	if g := GeneratorFor("ipv4", 0, 1); g.MeanFrameLen() < 64 || g.MeanFrameLen() > 1500 {
		t.Error("CAIDA generator mean out of range")
	}
	if g := GeneratorFor("ipv6", 128, 1); g.MeanFrameLen() != 128 {
		t.Error("ipv6 generator wrong size")
	}
	if g := GeneratorFor("ipv4", 256, 1); g.MeanFrameLen() != 256 {
		t.Error("ipv4 generator wrong size")
	}
}

func TestIPv6DstsTargetFIB(t *testing.T) {
	dsts := ipv6Dsts()
	if len(dsts) < 1000 {
		t.Fatalf("only %d IPv6 destinations", len(dsts))
	}
	// Deterministic across calls.
	if &ipv6Dsts()[0] != &dsts[0] {
		t.Error("ipv6Dsts not cached")
	}
}

func TestQuickDurations(t *testing.T) {
	o := Options{Quick: true}
	w, d := o.durations(5*simtime.Millisecond, 25*simtime.Millisecond)
	if w != simtime.Millisecond || d != 5*simtime.Millisecond {
		t.Errorf("quick durations = %v,%v", w, d)
	}
	o.Quick = false
	w, d = o.durations(5*simtime.Millisecond, 25*simtime.Millisecond)
	if w != 5*simtime.Millisecond || d != 25*simtime.Millisecond {
		t.Errorf("full durations = %v,%v", w, d)
	}
}

func TestStaticTablesRender(t *testing.T) {
	for _, id := range []string{"tab1", "tab3"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(Options{}, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out := buf.String()
		if id == "tab1" && !strings.Contains(out, "Adaptive load balancing") {
			t.Errorf("tab1 missing rows:\n%s", out)
		}
		if id == "tab3" && !strings.Contains(out, "10 GbE") {
			t.Errorf("tab3 missing hardware:\n%s", out)
		}
	}
}

func TestFaultsScenario(t *testing.T) {
	// The canonical outage scenario, scaled to a small machine for test
	// speed: the run must be bit-deterministic (the plan is part of the run
	// identity), collapse W during the outage, rescue the failed offloads on
	// the CPU without leaking, and re-climb after recovery.
	mk := func() (*core.Report, string) {
		spec, _, _ := FaultsScenario(Options{Quick: true, Seed: 42})
		spec.Topology = sysinfo.SingleSocketTopology(8, 2)
		spec.WorkersPerSocket = 7
		tr := trace.New(trace.Options{Capacity: 1 << 12})
		spec.Tracer = tr
		r, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		return r, tr.Digest()
	}
	r1, d1 := mk()
	r2, d2 := mk()
	if d1 != d2 {
		t.Fatalf("faults scenario not deterministic: digests %s vs %s", d1, d2)
	}
	if r1.FinalW != r2.FinalW || r1.FallbackPackets != r2.FallbackPackets {
		t.Fatalf("faults scenario reports diverged: W %.3f/%.3f fallback %d/%d",
			r1.FinalW, r2.FinalW, r1.FallbackPackets, r2.FallbackPackets)
	}

	_, failAt, recoverAt := FaultsScenario(Options{Quick: true, Seed: 42})
	for _, pt := range r1.LBTrace {
		if pt.At >= failAt+10*simtime.Millisecond && pt.At < recoverAt && pt.W > 0.1 {
			t.Errorf("W = %.3f at %v during outage, want <= 0.1", pt.W, pt.At)
		}
	}
	if r1.FailedTasks == 0 || r1.FallbackPackets == 0 {
		t.Errorf("outage produced %d failed tasks, %d rescued packets",
			r1.FailedTasks, r1.FallbackPackets)
	}
	if r1.FinalW < 0.25 {
		t.Errorf("final W = %.3f, want re-climb after recovery", r1.FinalW)
	}
	if r1.PoolOutstanding != 0 {
		t.Errorf("leak: %d packets outstanding", r1.PoolOutstanding)
	}
}

func TestCloneCostModelIsolated(t *testing.T) {
	a := cloneCostModel()
	b := cloneCostModel()
	a.MaxAggBatches = 99
	if b.MaxAggBatches == 99 {
		t.Error("cloneCostModel returned shared struct")
	}
}
