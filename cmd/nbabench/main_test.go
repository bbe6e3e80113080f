package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// wallLine matches the per-experiment wall-clock line, the only output that
// differs between two runs with the same flags.
var wallLine = regexp.MustCompile(`(?m)^    \(\d+\.\ds wall\)\n`)

// TestGoldenStdout pins the output of -list and of the two table experiments
// byte for byte, wall-clock lines removed. The golden files were recorded
// from the binary before run was factored out of main.
func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"list.golden", []string{"-list"}},
		{"tab1.golden", []string{"-exp", "tab1"}},
		{"tab3.golden", []string{"-exp", "tab3"}},
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
			if got := wallLine.ReplaceAllString(stdout.String(), ""); got != string(want) {
				t.Errorf("stdout differs from %s:\n got:\n%s\nwant:\n%s", tc.golden, got, want)
			}
		})
	}
}

// TestExitCodes pins the exit contract: 1 for an unknown experiment, 2 for a
// usage error. Every failure says why on stderr and prints nothing to stdout.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"unknown experiment", []string{"-exp", "nope"}, 1},
		{"no mode", nil, 2},
		{"stray argument after -list", []string{"-list", "extra"}, 2},
		{"second experiment as an argument", []string{"-exp", "tab1", "-quick", "tab3"}, 2},
		{"unknown flag", []string{"-nope"}, 2},
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
