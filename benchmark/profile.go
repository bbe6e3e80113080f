package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strings"
	"time"
)

// cpuBuckets are the cpu_self_frac.* attribution buckets: one per layer
// package, with the control planes folded together, the standard library's
// crypto kept apart from the apps that call it, and the Go runtime split
// into memory management and the rest.
var cpuBuckets = []string{"gen", "rng", "simtime", "netio", "mempool", "packet", "batch", "graph",
	"element", "apps", "stdcrypto", "offload", "gpu", "lb", "core", "stats", "trace", "control",
	"runtime_mem", "runtime_other", "other"}

var controlPkgs = map[string]bool{"fault": true, "overload": true, "integrity": true,
	"invariant": true, "reconfig": true, "sched": true, "chaos": true}

// runtimeMemWords mark the runtime functions that allocate, clear or
// collect memory.
var runtimeMemWords = []string{"malloc", "memclr", "gc", "scan", "sweep", "mark", "span", "mcache",
	"mcentral", "mheap", "heapbits", "greyobject", "wbbuf", "alloc", "nextfree", "arena", "bulkbarrier",
	"writebarrier", "typepointers", "madvise", "sysused", "sysunused", "pagealloc", "scavenge"}

// bucketOf maps a profiled function name to its bucket by package.
func bucketOf(fn string) string {
	// Cut type parameters and receivers so their dots and slashes do not
	// confuse the package split: "nba/internal/mempool.(*Pool[...]).Get".
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return "other"
	}
	pkg, name := fn[:slash+1+dot], fn[slash+1+dot+1:]
	switch {
	case pkg == "runtime":
		lower := strings.ToLower(name)
		for _, w := range runtimeMemWords {
			if strings.Contains(lower, w) {
				return "runtime_mem"
			}
		}
		return "runtime_other"
	case strings.HasPrefix(pkg, "runtime/"):
		return "runtime_other"
	case strings.HasPrefix(pkg, "crypto/"):
		return "stdcrypto"
	case strings.HasPrefix(pkg, "nba/internal/apps/"):
		return "apps"
	case strings.HasPrefix(pkg, "nba/internal/"):
		layer := strings.TrimPrefix(pkg, "nba/internal/")
		if controlPkgs[layer] {
			return "control"
		}
		for _, b := range cpuBuckets {
			if b == layer {
				return b
			}
		}
	}
	return "other"
}

// cpuProfiler writes one CPU profile file per timed section, so that only
// Run (or runSweep) is sampled, not set-up or verification.
type cpuProfiler struct {
	dir, prefix string
	files       []string
	err         error
}

// section starts profiling and returns the function that stops it.
func (p *cpuProfiler) section() func() {
	path := filepath.Join(p.dir, fmt.Sprintf("%s.cpu.%d.pprof", p.prefix, len(p.files)))
	f, err := os.Create(path)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		if p.err == nil {
			p.err = err
		}
		return func() {}
	}
	p.files = append(p.files, path)
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil && p.err == nil {
			p.err = err
		}
	}
}

var pprofTotal = regexp.MustCompile(`of ([0-9.a-zµ]+) total`)

// selfFractions merges the profiles with `go tool pprof -top` and buckets
// each function's flat samples by package. The fractions are of the
// profile's total, so they sum to 1 unless pprof dropped nodes.
func (p *cpuProfiler) selfFractions() (values, error) {
	if p.err != nil {
		return nil, p.err
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0"}, p.files...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	var total time.Duration
	flat := map[string]time.Duration{}
	inTable := false
	for _, line := range strings.Split(string(text), "\n") {
		if m := pprofTotal.FindStringSubmatch(line); m != nil && total == 0 {
			if total, err = time.ParseDuration(m[1]); err != nil {
				return nil, fmt.Errorf("pprof total %q: %w", m[1], err)
			}
			continue
		}
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			if f[0] == "0" {
				continue
			}
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		flat[bucketOf(strings.Join(f[5:], " "))] += d
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof reported no samples")
	}
	v := values{}
	for _, b := range cpuBuckets {
		v["cpu_self_frac."+b] = flat[b].Seconds() / total.Seconds()
	}
	return v, nil
}

// span is one interval the benchmark recorded around a call into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the benchmark ends. A nil log
// records nothing: end-to-end numbers are measured with tracing off.
type spanLog struct {
	t0       time.Time
	spans    []span
	workload string
	rep      int
}

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Workload: l.workload, Rep: l.rep, StartNs: time.Since(l.t0).Nanoseconds()})
	return len(l.spans)
}

func (l *spanLog) end(id int) {
	if l != nil && id > 0 {
		l.spans[id-1].EndNs = time.Since(l.t0).Nanoseconds()
	}
}

// selfSeconds sums, per span name, each span's duration minus the part its
// children cover.
func (l *spanLog) selfSeconds() map[string]float64 {
	self := map[string]float64{}
	for _, s := range l.spans {
		self[s.Name] += float64(s.EndNs-s.StartNs) / 1e9
	}
	for _, s := range l.spans {
		if s.Parent > 0 {
			self[l.spans[s.Parent-1].Name] -= float64(s.EndNs-s.StartNs) / 1e9
		}
	}
	return self
}

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
