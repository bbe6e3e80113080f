package stats

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nba/internal/rng"
	"nba/internal/simtime"
)

func TestMeterRate(t *testing.T) {
	var m Meter
	m.Mark(0)
	// 1000 packets of 84 wire bytes over 1 ms => 1 Mpps, 672 Mbps.
	for i := 0; i < 1000; i++ {
		m.Counter.Add(1, 84)
	}
	pps, bps := m.RateSince(simtime.Millisecond)
	if math.Abs(pps-1e6) > 1 {
		t.Errorf("pps = %v, want 1e6", pps)
	}
	if math.Abs(bps-672e6) > 1 {
		t.Errorf("bps = %v, want 672e6", bps)
	}
}

func TestMeterRateZeroInterval(t *testing.T) {
	var m Meter
	m.Mark(5)
	if pps, bps := m.RateSince(5); pps != 0 || bps != 0 {
		t.Error("zero interval should yield zero rates")
	}
}

func TestMeterMarkExcludesHistory(t *testing.T) {
	var m Meter
	m.Counter.Add(500, 500*84)
	m.Mark(simtime.Second)
	m.Counter.Add(100, 100*84)
	pps, _ := m.RateSince(simtime.Second + simtime.Millisecond)
	if math.Abs(pps-1e5) > 1 {
		t.Errorf("pps = %v, want 1e5 (pre-Mark traffic excluded)", pps)
	}
}

func TestMovingAverage(t *testing.T) {
	m := NewMovingAverage(4)
	if m.Mean() != 0 || m.Count() != 0 {
		t.Error("empty window not zero")
	}
	m.Push(2)
	m.Push(4)
	if m.Mean() != 3 || m.Count() != 2 {
		t.Errorf("Mean=%v Count=%d, want 3,2", m.Mean(), m.Count())
	}
	m.Push(6)
	m.Push(8)
	m.Push(100) // evicts the 2
	if m.Count() != 4 {
		t.Errorf("Count = %d, want 4", m.Count())
	}
	if want := (4 + 6 + 8 + 100) / 4.0; m.Mean() != want {
		t.Errorf("Mean = %v, want %v", m.Mean(), want)
	}
}

func TestMovingAverageInvalidWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero window did not panic")
		}
	}()
	NewMovingAverage(0)
}

func TestHistBasics(t *testing.T) {
	var h Hist
	h.Record(10 * simtime.Microsecond)
	h.Record(20 * simtime.Microsecond)
	h.Record(30 * simtime.Microsecond)
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if h.Min() != 10*simtime.Microsecond || h.Max() != 30*simtime.Microsecond {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	if h.Mean() != 20*simtime.Microsecond {
		t.Errorf("Mean = %v, want 20us", h.Mean())
	}
}

func TestHistPercentileAccuracy(t *testing.T) {
	// With 7.5% bucket growth, percentiles must be within ~10% of truth.
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.Record(simtime.Time(i) * simtime.Microsecond)
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		want := p / 100 * 1000 // true percentile in us
		got := h.Percentile(p).Micros()
		if got < want*0.95 || got > want*1.15 {
			t.Errorf("p%g = %.1fus, want within [%.1f, %.1f]", p, got, want*0.95, want*1.15)
		}
	}
}

func TestHistMerge(t *testing.T) {
	var a, b Hist
	a.Record(10 * simtime.Microsecond)
	b.Record(1 * simtime.Microsecond)
	b.Record(100 * simtime.Microsecond)
	a.Merge(&b)
	if a.Count() != 3 {
		t.Errorf("merged Count = %d, want 3", a.Count())
	}
	if a.Min() != 1*simtime.Microsecond || a.Max() != 100*simtime.Microsecond {
		t.Errorf("merged Min/Max = %v/%v", a.Min(), a.Max())
	}
	var empty Hist
	a.Merge(&empty) // must not disturb
	if a.Count() != 3 {
		t.Error("merging empty changed count")
	}
}

func TestHistBucketMonotoneProperty(t *testing.T) {
	// Property: bucketOf is monotone in t and Percentile(100) >= Max ever
	// recorded... verified via recording pairs.
	f := func(aUs, bUs uint16) bool {
		a := simtime.Time(aUs+1) * simtime.Microsecond
		b := simtime.Time(bUs+1) * simtime.Microsecond
		if a > b {
			a, b = b, a
		}
		return bucketOf(a) <= bucketOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// bucketOfLog is the logarithm form bucketOf had before it was seeded from
// a table, kept as the reference.
func bucketOfLog(t simtime.Time) int {
	if t <= histBase {
		return 0
	}
	i := int(math.Log(float64(t)/float64(histBase)) / math.Log(histGrowth))
	if i >= bucketCount {
		return bucketCount - 1
	}
	for i > 0 && bucketBounds[i] > t {
		i--
	}
	for i < bucketCount-1 && bucketBounds[i+1] <= t {
		i++
	}
	return i
}

func TestBucketOfMatchesLogForm(t *testing.T) {
	check := func(v simtime.Time) {
		t.Helper()
		if v < 0 {
			v = 0 // Record clamps before it looks the bucket up
		}
		if got, want := bucketOf(v), bucketOfLog(v); got != want {
			t.Fatalf("bucketOf(%d) = %d, log form %d", int64(v), got, want)
		}
	}
	for i, b := range bucketBounds {
		check(b - 1)
		check(b)
		check(b + 1)
		if i > 0 && bucketOf(b) != i {
			t.Fatalf("bucketOf(bucketBounds[%d]) = %d", i, bucketOf(b))
		}
	}
	last := bucketBounds[bucketCount-1]
	for _, v := range []simtime.Time{-5, 0, 1, histBase, last * 2, 1000 * simtime.Second, math.MaxInt64} {
		check(v)
	}
	// Log-uniform draws over the whole positive range, so every bit length
	// and every bucket is hit thousands of times.
	r := rng.New(15)
	for i := 0; i < 1_000_000; i++ {
		check(simtime.Time(r.Uint64() >> (1 + r.Intn(63))))
	}
}

func BenchmarkBucketOf(b *testing.B) {
	r := rng.New(1)
	ts := make([]simtime.Time, 1024)
	for i := range ts {
		ts[i] = simtime.Time(20+r.Intn(400)) * simtime.Microsecond
	}
	sum := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum += bucketOf(ts[i&1023])
	}
	sinkBucket = sum
}

var sinkBucket int

func TestHistZeroAndNegative(t *testing.T) {
	var h Hist
	h.Record(0)
	h.Record(-5) // clamped
	if h.Count() != 2 || h.Min() != 0 {
		t.Errorf("Count=%d Min=%v", h.Count(), h.Min())
	}
}

func TestGbps(t *testing.T) {
	if Gbps(10e9) != 10 {
		t.Error("Gbps conversion wrong")
	}
}

func TestSortedKeys(t *testing.T) {
	m := map[string]int{"b": 1, "a": 2, "c": 3}
	keys := SortedKeys(m)
	if len(keys) != 3 || keys[0] != "a" || keys[2] != "c" {
		t.Errorf("SortedKeys = %v", keys)
	}
	if ints := SortedKeys(map[int32]bool{3: true, -1: true, 2: true}); !slices.Equal(ints, []int32{-1, 2, 3}) {
		t.Errorf("SortedKeys of int32 keys = %v", ints)
	}
}

func BenchmarkHistRecord(b *testing.B) {
	var h Hist
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(simtime.Time(i%10000) * simtime.Microsecond)
	}
}

func TestCountersAddAccountedConserved(t *testing.T) {
	a := Counters{RxDelivered: 100, RxDropped: 7, AllocFailed: 2, TxPackets: 80, GraphDrops: 10,
		ShedPackets: 6, QuarantinedPackets: 4, OffloadedPackets: 50, FallbackPackets: 5,
		FailedTasks: 1}
	if got := a.Accounted(); got != 100 {
		t.Errorf("Accounted = %d, want 80+10+6+4 = 100", got)
	}
	if !a.Conserved() {
		t.Error("balanced table reported as not conserved")
	}
	if !(Counters{}).Conserved() {
		t.Error("zero table reported as not conserved")
	}

	// Each disposition is a term of the identity: dropping any one of them
	// unbalances the table, and so does a packet accounted twice.
	for name, c := range map[string]Counters{
		"missing tx":          {RxDelivered: 100, GraphDrops: 10, ShedPackets: 6, QuarantinedPackets: 4},
		"missing graph drops": {RxDelivered: 100, TxPackets: 80, ShedPackets: 6, QuarantinedPackets: 4},
		"missing shed":        {RxDelivered: 100, TxPackets: 80, GraphDrops: 10, QuarantinedPackets: 4},
		"missing quarantined": {RxDelivered: 100, TxPackets: 80, GraphDrops: 10, ShedPackets: 6},
		"double accounted":    {RxDelivered: 100, TxPackets: 81, GraphDrops: 10, ShedPackets: 6, QuarantinedPackets: 4},
	} {
		if c.Conserved() {
			t.Errorf("%s: unbalanced table %+v reported as conserved", name, c)
		}
	}

	// Add is field-wise: the sum of two scopes is conserved when both are,
	// and every one of the ten fields doubles when a table is added to
	// itself.
	sum := a
	sum.Add(a)
	want := Counters{RxDelivered: 200, RxDropped: 14, AllocFailed: 4, TxPackets: 160, GraphDrops: 20,
		ShedPackets: 12, QuarantinedPackets: 8, OffloadedPackets: 100, FallbackPackets: 10,
		FailedTasks: 2}
	if sum != want {
		t.Errorf("a+a = %+v, want %+v", sum, want)
	}
	if !sum.Conserved() {
		t.Error("sum of two conserved tables is not conserved")
	}
}
