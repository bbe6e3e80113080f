package trace_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nba/internal/bench"
	"nba/internal/core"
	"nba/internal/golden"
	"nba/internal/reconfig"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

// goldenSpec returns the canonical short run every golden trace pins: small
// frame, one worker, modest load, fixed seed. Short enough that all eight
// app×variant runs finish in well under a second each.
func goldenSpec(t *testing.T, app, lb string) core.Config {
	t.Helper()
	cfg, err := bench.AppRun(app, lb, 64, 42)
	if err != nil {
		t.Fatal(err)
	}
	cfg.OfferedBpsPerPort = 1e9
	cfg.WorkersPerSocket = 1
	cfg.Warmup, cfg.Duration = 200*simtime.Microsecond, 2*simtime.Millisecond
	return cfg
}

// runTraced executes the spec with a fresh tracer attached and returns it.
func runTraced(t *testing.T, spec core.Config) *trace.Tracer {
	t.Helper()
	tr := trace.New(trace.Options{})
	spec.Tracer = tr
	if _, err := bench.Run(spec); err != nil {
		t.Fatal(err)
	}
	return tr
}

// pinned is the pinned state of one canonical run.
type pinned struct {
	Digest      string
	Total       uint64
	Checkpoints []trace.Checkpoint
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".golden")
}

func writeGolden(t *testing.T, name string, tr *trace.Tracer) {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Golden trace digest for the %s run.\n", name)
	fmt.Fprintf(&sb, "# Regenerate intentionally with: go test ./internal/trace -run TestGoldenTraces -update\n")
	fmt.Fprintf(&sb, "digest %s\n", tr.Digest())
	fmt.Fprintf(&sb, "total %d\n", tr.Total())
	for _, cp := range tr.Checkpoints() {
		fmt.Fprintf(&sb, "cp %d %d %s\n", cp.Seq, int64(cp.At), cp.Digest)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath(name)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

func readGolden(t *testing.T, name string) pinned {
	t.Helper()
	data, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var g pinned
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		switch f[0] {
		case "digest":
			g.Digest = f[1]
		case "total":
			fmt.Sscanf(f[1], "%d", &g.Total)
		case "cp":
			var cp trace.Checkpoint
			var at int64
			fmt.Sscanf(f[1], "%d", &cp.Seq)
			fmt.Sscanf(f[2], "%d", &at)
			cp.At = simtime.Time(at)
			cp.Digest = f[3]
			g.Checkpoints = append(g.Checkpoints, cp)
		default:
			t.Fatalf("golden %s: unknown line %q", name, line)
		}
	}
	return g
}

// goldenCases is the canonical matrix: every sample app, CPU-only and
// offloaded (fixed fraction, so the offload split is deterministic without a
// controller transient).
var goldenCases = []struct{ app, lb string }{
	{"ipv4", "cpu"}, {"ipv4", "fixed=0.8"},
	{"ipv6", "cpu"}, {"ipv6", "fixed=0.8"},
	{"ipsec", "cpu"}, {"ipsec", "fixed=0.8"},
	{"ids", "cpu"}, {"ids", "fixed=0.8"},
}

func caseName(app, lb string) string {
	return app + "_" + strings.ReplaceAll(strings.ReplaceAll(lb, "=", ""), ".", "")
}

// TestGoldenTraces pins the trace digest of each canonical run. A failure
// means the run's event stream changed: either a regression, or an
// intentional behaviour change — in the latter case regenerate with -update
// and explain the change in the commit.
func TestGoldenTraces(t *testing.T) {
	for _, c := range goldenCases {
		c := c
		t.Run(caseName(c.app, c.lb), func(t *testing.T) {
			tr := runTraced(t, goldenSpec(t, c.app, c.lb))
			name := caseName(c.app, c.lb)
			if golden.Updating() {
				writeGolden(t, name, tr)
				return
			}
			g := readGolden(t, name)
			if tr.Digest() == g.Digest && tr.Total() == g.Total {
				return
			}
			// First-divergence report: bracket with the checkpoint chains,
			// then show the retained events at the start of the window.
			t.Errorf("trace digest mismatch:\n  got  %s (%d events)\n  want %s (%d events)",
				tr.Digest(), tr.Total(), g.Digest, g.Total)
			lo, hi, div := trace.DiffCheckpoints(g.Checkpoints, tr.Checkpoints())
			if !div {
				// Chains agree over the common prefix: divergence is after the
				// last shared checkpoint.
				if n := len(g.Checkpoints); n > 0 {
					lo = g.Checkpoints[n-1].Seq
				}
				hi = tr.Total()
			}
			t.Errorf("first divergence in event window (%d, %d]", lo, hi)
			for _, ev := range tr.Events() {
				if ev.Seq >= lo && ev.Seq < lo+8 {
					t.Errorf("  event %d: at=%v kind=%s actor=%d name=%s a=%d b=%d c=%d d=%d",
						ev.Seq, ev.At, ev.Kind, ev.Actor, ev.Name, ev.A, ev.B, ev.C, ev.D)
				}
			}
		})
	}
}

// TestGoldenTracesUnchangedByEmptyReconfigPlan pins the reconfig disarm
// contract at the golden layer: attaching an empty (non-nil) reconfig plan to
// every canonical run must reproduce the committed golden digest
// byte-identically — arming the subsystem without scripting any epoch may not
// perturb the timeline at all.
func TestGoldenTracesUnchangedByEmptyReconfigPlan(t *testing.T) {
	for _, c := range goldenCases {
		c := c
		t.Run(caseName(c.app, c.lb), func(t *testing.T) {
			spec := goldenSpec(t, c.app, c.lb)
			spec.Reconfig = &reconfig.Plan{}
			tr := runTraced(t, spec)
			g := readGolden(t, caseName(c.app, c.lb))
			if tr.Digest() != g.Digest || tr.Total() != g.Total {
				t.Errorf("empty reconfig plan perturbed the golden run:\n  got  %s (%d events)\n  want %s (%d events)",
					tr.Digest(), tr.Total(), g.Digest, g.Total)
			}
		})
	}
}

// TestGoldenRunsAreDeterministic re-executes one case and requires a
// bit-identical stream — the dynamic counterpart of cmd/nbalint's static
// determinism rules.
func TestGoldenRunsAreDeterministic(t *testing.T) {
	a := runTraced(t, goldenSpec(t, "ipv4", "fixed=0.8"))
	b := runTraced(t, goldenSpec(t, "ipv4", "fixed=0.8"))
	if a.Digest() != b.Digest() {
		d := trace.Diff(a.Events(), b.Events())
		t.Fatalf("same config+seed diverged: %v", d)
	}
}

// TestCostChangeBreaksGolden verifies the suite's sensitivity: flipping one
// element's cycle cost must change the digest and produce a first-divergence
// report naming that element.
func TestCostChangeBreaksGolden(t *testing.T) {
	base := runTraced(t, goldenSpec(t, "ipv4", "cpu"))

	cm := sysinfo.Default()
	ec := cm.Elements["IPLookup"]
	ec.Fixed++ // one cycle more per batch
	cm.Elements["IPLookup"] = ec
	spec := goldenSpec(t, "ipv4", "cpu")
	spec.CostModel = cm
	mod := runTraced(t, spec)

	if base.Digest() == mod.Digest() {
		t.Fatal("digest insensitive to a +1 cycle element cost change")
	}
	d := trace.Diff(base.Events(), mod.Events())
	if d == nil {
		t.Fatal("digests differ but event streams compare equal")
	}
	if d.A == nil || !strings.Contains(d.A.Name, "IPLookup") {
		t.Fatalf("first divergence should land on the changed element, got: %v", d)
	}
	t.Logf("first divergence: %v", d)
}
