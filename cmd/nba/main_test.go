package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nba/internal/golden"
	"nba/internal/trace"
)

// TestGoldenStdout pins the report of two short runs byte for byte. The
// golden files were recorded from the binary before run was factored out of
// main.
func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"ipv4.golden", []string{"-app", "ipv4", "-duration", "2ms", "-warmup", "1ms"}},
		{"tenants.golden", []string{"-tenants", "ipv4,ipsec", "-duration", "2ms", "-warmup", "1ms"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			golden.Check(t, filepath.Join("testdata", tc.golden), stdout.String())
		})
	}
}

// TestExitCodes pins the exit contract: 1 for a run that cannot be built,
// 2 for a usage error. Every failure says why on stderr and never panics.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"frame below the header", []string{"-app", "ipv4", "-size", "30"}, 1},
		{"frame above the buffer", []string{"-app", "ipv4", "-size", "2000"}, 1},
		{"ipv6 frame below the header", []string{"-app", "ipv6", "-size", "50"}, 1},
		{"negative warmup", []string{"-app", "ipv4", "-warmup", "-1ms"}, 1},
		{"negative duration", []string{"-app", "ipv4", "-duration", "-1ms"}, 1},
		{"unknown app", []string{"-app", "nope"}, 1},
		{"NaN tenant share", []string{"-tenants", "ipv4=NaN"}, 1},
		{"NaN offload fraction", []string{"-app", "ipv4", "-lb", "fixed=NaN"}, 1},
		{"reconfig without tenants", []string{"-app", "ipv4", "-reconfig"}, 1},
		{"corrupt with faults", []string{"-app", "ipsec", "-lb", "fixed=0.8", "-corrupt", "-faults"}, 1},
		{"record into a directory", []string{"-app", "ipv4", "-duration", "1ms", "-warmup", "1ms", "-record", t.TempDir()}, 1},
		{"no config or app", nil, 2},
		{"unknown flag", []string{"-trace", "x"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.want {
				t.Fatalf("exit %d, want %d; stderr:\n%s", code, tc.want, stderr.String())
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

// TestRecordPinned runs the six flag sets scripts/check.sh records and pins
// each recording's event total and digest (testdata/record): a change to how nba assembles
// its run (tenants, plans, seeds) moves a digest here before it reaches the
// gate's record-twice diff, which only proves self-consistency. The run
// shape flags come first so a case's own -gbps wins.
func TestRecordPinned(t *testing.T) {
	const shape = "-gbps 1 -workers 1 -duration 2ms -warmup 200us"
	flagSets := []string{
		"-app ipv4 -lb fixed=0.8",
		"-app ipsec -lb fixed=0.8 -faults",
		"-app ipsec -lb fixed=0.8 -gbps 3 -overload",
		"-app ipsec -lb fixed=0.8 -corrupt",
		"-tenants ipv4,ipsec",
		"-tenants ipv4,ids -reconfig",
	}
	// One file per flag set, named after the flags: "-app ipv4 -lb
	// fixed=0.8" pins testdata/record/app_ipv4_lb_fixed=0.8.golden.
	name := strings.NewReplacer(" -", "_", "-", "", " ", "_").Replace
	for _, flags := range flagSets {
		t.Run(flags, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "run.jsonl")
			args := append(strings.Fields(shape+" "+flags), "-record", out)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			f, err := os.Open(out)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			tf, err := trace.ReadJSONL(f)
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, filepath.Join("testdata", "record", name(flags)+".golden"),
				fmt.Sprintf("%d %s\n", tf.Meta.Total, tf.Meta.Digest))
		})
	}
}
