package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"nba/internal/bench"
	"nba/internal/golden"
	"nba/internal/simtime"
	"nba/internal/trace"
)

// record runs the ipsec fixed=0.8 pipeline at seed with the shape of the
// trace goldens (1 Gbps per port, one worker, 200 µs warm-up, 2 ms measured)
// and writes its trace to a file under dir, labelled as summary.golden's
// first line expects.
func record(t *testing.T, dir string, seed uint64) string {
	t.Helper()
	spec, err := bench.AppRun("ipsec", "fixed=0.8", 64, seed)
	if err != nil {
		t.Fatal(err)
	}
	spec.OfferedBpsPerPort = 1e9
	spec.WorkersPerSocket = 1
	spec.Warmup, spec.Duration = 200*simtime.Microsecond, 2*simtime.Millisecond
	spec.Tracer = trace.New(trace.Options{})
	if _, err := bench.Run(spec); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "run.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	label := "app=ipsec lb=fixed=0.8 gbps=1 size=64 workers=1 seed=42 faults=false corrupt=false overload=false reconfig=false"
	if err := spec.Tracer.WriteJSONL(f, label); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSummaryGolden pins the summary report byte for byte. The golden file
// was recorded from the binary before run was factored out of main.
func TestSummaryGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"summary", record(t, t.TempDir(), 42)}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	golden.Check(t, filepath.Join("testdata", "summary.golden"), stdout.String())
}

// TestExitCodes pins the exit contract: 0 for identical traces, 1 for a
// divergence or an unreadable trace, 2 for a usage error. Every failure but
// a divergence says why on stderr and prints nothing to stdout.
func TestExitCodes(t *testing.T) {
	a := record(t, t.TempDir(), 42)
	b := record(t, t.TempDir(), 42)
	other := record(t, t.TempDir(), 43)
	corrupt := filepath.Join(t.TempDir(), "corrupt.jsonl")
	if err := os.WriteFile(corrupt, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"identical traces", []string{"diff", a, b}, 0},
		{"divergent traces", []string{"diff", a, other}, 1},
		{"missing file", []string{"diff", a, missing}, 1},
		{"corrupt file", []string{"summary", corrupt}, 1},
		{"no subcommand", nil, 2},
		{"summary without a file", []string{"summary"}, 2},
		{"diff of one file", []string{"diff", a}, 2},
		{"record", []string{"record", "-app", "ipv4", "-o", missing}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.want, stderr.String())
			}
			if len(tc.args) > 0 && tc.args[0] == "diff" && tc.want < 2 && stderr.Len() == 0 {
				// A diff that read both traces prints its verdict.
				if stdout.Len() == 0 {
					t.Error("diff printed no verdict")
				}
				return
			}
			if stderr.Len() == 0 {
				t.Error("failure printed nothing to stderr")
			}
			if stdout.Len() != 0 {
				t.Errorf("failure printed to stdout:\n%s", stdout.String())
			}
		})
	}
}
