package main

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nba/internal/golden"
)

// wallNote matches the wall-time note nbabench writes to stderr after each
// experiment.
var wallNote = regexp.MustCompile(`(?m)^\S+ \(\d+\.\ds wall\)$`)

// TestGoldenStdout pins the output of -list and of the two table experiments
// byte for byte (the quick figure grid's golden is checked by internal/core's
// TestParkingAgreesOnFigureGrid). Stdout holds no wall time: each experiment
// run writes exactly one wall-time note, to stderr.
func TestGoldenStdout(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
		runs   int
	}{
		{"list.golden", []string{"-list"}, 0},
		{"tab1.golden", []string{"-exp", "tab1"}, 1},
		{"tab3.golden", []string{"-exp", "tab3"}, 1},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
			}
			if strings.Contains(stdout.String(), "wall)") {
				t.Errorf("stdout holds a wall-time line:\n%s", stdout.String())
			}
			if n := len(wallNote.FindAllString(stderr.String(), -1)); n != tc.runs {
				t.Errorf("stderr holds %d wall-time notes, want %d:\n%s", n, tc.runs, stderr.String())
			}
			golden.Check(t, filepath.Join("testdata", tc.golden), stdout.String())
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
