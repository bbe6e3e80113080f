package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload and end-to-end metric, how much worse B
// is than A relative to A, beside the metric's bound, and returns an error
// when any metric is outside its bound. When both files are of one seed the
// simulator's outputs must not differ at all: virtual metrics and output
// fingerprints are then compared exactly.
func compareFiles(specPath, pathA, pathB string, w io.Writer) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readReport(pathA)
	if err != nil {
		return err
	}
	b, err := readReport(pathB)
	if err != nil {
		return err
	}
	sameSeed := a.Seed == b.Seed
	bad := 0
	fmt.Fprintf(w, "%-22s %-20s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if !ra.Correct || !rb.Correct {
			fmt.Fprintf(w, "%-22s not correct in both files (A %v, B %v)\n", wl.Name, ra.Correct, rb.Correct)
			bad++
			continue
		}
		if sameSeed && a.Fingerprints[wl.Name] != b.Fingerprints[wl.Name] {
			fmt.Fprintf(w, "%-22s output fingerprints differ at seed %d\n", wl.Name, a.Seed)
			bad++
		}
		for _, m := range spec.EndToEnd {
			ma, okA := ra.Metrics[m.Name]
			mb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				return fmt.Errorf("%s: metric %s missing (compare needs two --trace 0 files)", wl.Name, m.Name)
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if m.Better == "higher" {
				worse = -worse
			}
			bound, verdict := m.Bound, ""
			if sameSeed && strings.HasPrefix(m.Name, "virt_") {
				bound = 0
				if ma.Value != mb.Value {
					verdict = "  DIFFERS"
				}
			} else if worse > bound {
				verdict = "  WORSE"
			}
			if verdict != "" {
				bad++
			}
			fmt.Fprintf(w, "%-22s %-20s %14.6g %14.6g %+8.2f%% %6.1f%%%s\n",
				wl.Name, m.Name, ma.Value, mb.Value, 100*worse, 100*bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d workload x metric pairs outside their bounds", bad)
	}
	return nil
}
