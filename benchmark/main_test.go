package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// checkResult asserts that a workload's result carries exactly the declared
// metric set, with units, and that every rep reproduced rep 0's outputs.
func checkResult(t *testing.T, name string, res result, declared []metricSpec, printed string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 {
		t.Errorf("%s: correct %v, %d of %d reps failed", name, res.Correct, res.Failed, res.Attempted)
	}
	// Rep 0 plus at least one timed rep: step compares every rep's virtual
	// metrics and fingerprint with rep 0's, so zero failures over two or
	// more reps means they were identical.
	if res.Attempted < 2 {
		t.Errorf("%s: %d reps attempted, want rep 0 and a timed rep", name, res.Attempted)
	}
	if len(res.Metrics) != len(declared) {
		t.Errorf("%s: %d metrics, BENCHMARK.json declares %d", name, len(res.Metrics), len(declared))
	}
	for _, d := range declared {
		m, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s missing", name, d.Name)
			continue
		}
		if m.Unit == "" || m.Unit != d.Unit {
			t.Errorf("%s: %s has unit %q, declared %q", name, d.Name, m.Unit, d.Unit)
		}
		if !strings.Contains(printed, " "+d.Name+" ") {
			t.Errorf("%s: metric %s was not printed by name", name, d.Name)
		}
	}
}

// TestSmoke runs every workload, cut down 25x, for one timed rep, and the
// traced run of one of them.
func TestSmoke(t *testing.T) {
	microTarget = 100 * time.Microsecond
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	o := options{seed: 42, specPath: filepath.Join("..", "BENCHMARK.json"), outDir: t.TempDir(), shrink: 25}
	var out bytes.Buffer
	rep, err := run(o, &out)
	if err != nil {
		t.Fatalf("end-to-end run: %v\n%s", err, out.String())
	}
	if len(rep.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads ran, BENCHMARK.json declares %d", len(rep.Workloads), len(spec.Workloads))
	}
	for _, w := range spec.Workloads {
		checkResult(t, w.Name, rep.Workloads[w.Name], spec.EndToEnd, out.String())
		for _, m := range spec.EndToEnd {
			if rep.Workloads[w.Name].Metrics[m.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
			}
		}
	}

	o.workload, o.trace = "ipsec-caida-alb", true
	o.jsonPath = filepath.Join(o.outDir, "traced.json")
	out.Reset()
	rep, err = run(o, &out)
	if err != nil {
		t.Fatalf("traced run: %v\n%s", err, out.String())
	}
	res := rep.Workloads[o.workload]
	checkResult(t, o.workload, res, spec.PerLayer, out.String())
	sum := 0.0
	for name, m := range res.Metrics {
		if strings.HasPrefix(name, "cpu_self_frac.") {
			sum += m.Value
		}
	}
	if sum < 0.98 || sum > 1.02 {
		t.Errorf("cpu_self_frac.* sum to %v, want 1 +- 0.02", sum)
	}
	// A --trace 0 file compared with itself is inside every bound; a traced
	// file has no end-to-end metrics to compare.
	if err := compareFiles(o.specPath, o.jsonPath, o.jsonPath, &out); err == nil {
		t.Error("compare accepted a traced file")
	}
}

func TestBucketOf(t *testing.T) {
	for fn, want := range map[string]string{
		"nba/internal/gen.fillPayload":                                    "gen",
		"nba/internal/apps/ids.(*AC).Match":                               "apps",
		"nba/internal/mempool.(*Pool[go.shape.struct { a/b.c int }]).Get": "mempool",
		"nba/internal/invariant.(*Checker).OnDispatch":                    "control",
		"nba/internal/bench.GeneratorFor":                                 "other",
		"crypto/internal/fips140/aes.encryptBlockAsm":                     "stdcrypto",
		"runtime.mallocgcSmallNoscan":                                     "runtime_mem",
		"runtime.memclrNoHeapPointers":                                    "runtime_mem",
		"runtime.memmove":                                                 "runtime_other",
		"runtime/pprof.(*profMap).lookup":                                 "runtime_other",
		"math.archLog":                                                    "other",
		"container/heap.down":                                             "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
