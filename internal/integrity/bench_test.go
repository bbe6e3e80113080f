package integrity

import (
	"testing"

	"nba/internal/batch"
)

// BenchmarkSentinelCompare measures the sentinel compare path — snapshot,
// shadow re-execution, digest comparison, release — at steady state. A
// released shadow keeps its arenas, so the path is allocation-free after the
// first iteration, which ReportAllocs pins in review.
func BenchmarkSentinelCompare(b *testing.B) {
	s := newSentinel(1, 3)
	src := fill(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh := s.Snapshot([]*batch.Batch{src})
		s.Verify(sh, deviceExec)
	}
}

// TestCompareSteadyStateAllocFree gates the benchmark's claim: once a
// shadow of the aggregate's size is on the free list, a full
// snapshot/verify/release cycle allocates nothing.
func TestCompareSteadyStateAllocFree(t *testing.T) {
	s := newSentinel(1, 3)
	src := fill(32)
	s.Release(s.Snapshot([]*batch.Batch{src})) // size a shadow's arenas
	allocs := testing.AllocsPerRun(100, func() {
		sh := s.Snapshot([]*batch.Batch{src})
		s.Verify(sh, deviceExec)
	})
	if allocs != 0 {
		t.Fatalf("steady-state compare path allocates %v objects per run, want 0", allocs)
	}
}

// TestDisarmedSampleAllocFree is the disarm gate: with sampling disabled
// (rate 0) and on a nil sentinel, the per-aggregate hot-path coin must not
// allocate at all.
func TestDisarmedSampleAllocFree(t *testing.T) {
	disarmed := newSentinel(0, 3)
	var nilS *Sentinel
	if allocs := testing.AllocsPerRun(1000, func() {
		if disarmed.Sample() {
			t.Error("rate-0 sentinel sampled")
		}
	}); allocs != 0 {
		t.Fatalf("disarmed Sample allocates %v objects per run, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		if nilS.Sample() {
			t.Error("nil sentinel sampled")
		}
	}); allocs != 0 {
		t.Fatalf("nil Sample allocates %v objects per run, want 0", allocs)
	}
}
