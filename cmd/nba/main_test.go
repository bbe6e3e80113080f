package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
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
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", tc.golden, got, want)
			}
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
