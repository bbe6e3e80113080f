// Package stats provides the measurement primitives used by the framework
// and the experiment harness: counters, interval throughput meters, moving
// averages (for the adaptive load balancer) and latency histograms (for the
// paper's latency CDFs, Figure 14).
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"nba/internal/simtime"
)

// TrafficCounter accumulates packet and wire-byte counts.
type TrafficCounter struct {
	Packets   uint64
	WireBytes uint64 // frame bytes + per-frame wire overhead
	Drops     uint64
}

// Add records n packets of the given per-frame wire bytes.
func (c *TrafficCounter) Add(pkts int, wireBytes int) {
	c.Packets += uint64(pkts)
	c.WireBytes += uint64(wireBytes)
}

// Counters is the packet-accounting table of one scope: a worker lane, a
// tenant (the sum of its lanes) or a whole run (the sum of its tenants).
// Every packet an RX queue delivers ends in exactly one of the four
// dispositions Accounted sums, so a drained scope satisfies Conserved; the
// offload-path counters below the identity are informational.
type Counters struct {
	// RxDelivered / RxDropped / AllocFailed are the scope's NIC queue
	// statistics over the whole run including warmup: packets handed to the
	// pipeline, overflow plus buffer-exhaustion drops, and the
	// buffer-exhaustion subset of those drops.
	RxDelivered uint64
	RxDropped   uint64
	AllocFailed uint64
	// TxPackets counts packets transmitted over the whole run.
	TxPackets uint64
	// GraphDrops counts packets dropped inside pipelines (by an element, as
	// unrouted, or by the framework outside any element).
	GraphDrops uint64
	// ShedPackets counts packets dropped by overload control (CoDel sojourn
	// shedding plus admission-rejected aggregates at LevelShed).
	ShedPackets uint64
	// QuarantinedPackets counts packets discarded because sentinel
	// re-execution disagreed with the device's results (never transmitted,
	// never resumed); zero when the integrity subsystem is off.
	QuarantinedPackets uint64
	// OffloadedPackets counts packets submitted to accelerators;
	// FallbackPackets counts packets rescued onto the CPU because their task
	// failed, timed out, was refused or found its device unplugged.
	OffloadedPackets uint64
	FallbackPackets  uint64
	// FailedTasks counts tasks a failed, stalled or unplugged device handed
	// back; TimedOutTasks counts tasks an epoch force-rescue took back;
	// RejectedTasks counts device submissions refused by admission control,
	// whether rescued or shed.
	FailedTasks   uint64
	TimedOutTasks uint64
	RejectedTasks uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.RxDelivered += o.RxDelivered
	c.RxDropped += o.RxDropped
	c.AllocFailed += o.AllocFailed
	c.TxPackets += o.TxPackets
	c.GraphDrops += o.GraphDrops
	c.ShedPackets += o.ShedPackets
	c.QuarantinedPackets += o.QuarantinedPackets
	c.OffloadedPackets += o.OffloadedPackets
	c.FallbackPackets += o.FallbackPackets
	c.FailedTasks += o.FailedTasks
	c.TimedOutTasks += o.TimedOutTasks
	c.RejectedTasks += o.RejectedTasks
}

// Accounted returns how many delivered packets have met their disposition:
// transmitted, dropped in a pipeline, shed or quarantined. A new drop class
// is one field above plus one term here.
func (c Counters) Accounted() uint64 {
	return c.TxPackets + c.GraphDrops + c.ShedPackets + c.QuarantinedPackets
}

// Conserved reports the conservation identity RxDelivered == Accounted(),
// which holds for any drained scope.
func (c Counters) Conserved() bool { return c.RxDelivered == c.Accounted() }

// Meter measures throughput over an interval of virtual time.
type Meter struct {
	Counter   TrafficCounter
	markTime  simtime.Time
	markPkts  uint64
	markBytes uint64
	ended     bool
	endTime   simtime.Time
	endPkts   uint64
	endBytes  uint64
}

// Mark starts a measurement interval at time now, reopening the window if a
// previous one was frozen by End.
func (m *Meter) Mark(now simtime.Time) {
	m.markTime = now
	m.markPkts = m.Counter.Packets
	m.markBytes = m.Counter.WireBytes
	m.ended = false
}

// RateSince returns (pps, bps) over the interval from the last Mark to now.
// Once End has frozen the window, reads at or beyond the end time use the
// frozen counts, so post-End drain traffic never inflates the rate.
func (m *Meter) RateSince(now simtime.Time) (pps, bps float64) {
	pkts, bytes := m.Counter.Packets, m.Counter.WireBytes
	if m.ended && now >= m.endTime {
		now = m.endTime
		pkts, bytes = m.endPkts, m.endBytes
	}
	dt := (now - m.markTime).Seconds()
	if dt <= 0 {
		return 0, 0
	}
	pps = float64(pkts-m.markPkts) / dt
	bps = float64(bytes-m.markBytes) * 8 / dt
	return pps, bps
}

// End freezes the measurement window at time now. Traffic counted after End
// (e.g. packets drained from queues after arrivals stop) is excluded from
// RateWindow and from RateSince reads at or beyond now.
func (m *Meter) End(now simtime.Time) {
	m.ended = true
	m.endTime = now
	m.endPkts = m.Counter.Packets
	m.endBytes = m.Counter.WireBytes
}

// EndBytes returns the wire bytes counted when End froze the window.
func (m *Meter) EndBytes() uint64 { return m.endBytes }

// RateWindow returns (pps, bps) over the Mark..End window. It requires both
// Mark and End to have been called.
func (m *Meter) RateWindow() (pps, bps float64) {
	dt := (m.endTime - m.markTime).Seconds()
	if dt <= 0 {
		return 0, 0
	}
	pps = float64(m.endPkts-m.markPkts) / dt
	bps = float64(m.endBytes-m.markBytes) * 8 / dt
	return pps, bps
}

// MovingAverage is a fixed-window mean, used by the adaptive load balancer
// to smooth throughput observations (paper §3.4: history size 16384).
type MovingAverage struct {
	buf  []float64
	sum  float64
	next int
	full bool
}

// NewMovingAverage creates a window of size n.
func NewMovingAverage(n int) *MovingAverage {
	if n <= 0 {
		panic(fmt.Sprintf("stats: moving average window must be positive, got %d", n))
	}
	return &MovingAverage{buf: make([]float64, n)}
}

// Push adds a sample.
func (m *MovingAverage) Push(v float64) {
	m.sum -= m.buf[m.next]
	m.buf[m.next] = v
	m.sum += v
	m.next++
	if m.next == len(m.buf) {
		m.next = 0
		m.full = true
	}
}

// Mean returns the window mean (over the filled portion).
func (m *MovingAverage) Mean() float64 {
	n := m.Count()
	if n == 0 {
		return 0
	}
	return m.sum / float64(n)
}

// Reset discards all samples.
func (m *MovingAverage) Reset() {
	for i := range m.buf {
		m.buf[i] = 0
	}
	m.sum = 0
	m.next = 0
	m.full = false
}

// Count returns the number of samples in the window.
func (m *MovingAverage) Count() int {
	if m.full {
		return len(m.buf)
	}
	return m.next
}

// Hist is a latency histogram with logarithmic buckets spanning 100 ns to
// ~10 s, sufficient for the paper's microsecond-to-millisecond CDFs.
type Hist struct {
	buckets [bucketCount]uint64
	count   uint64
	sum     simtime.Time
	min     simtime.Time
	max     simtime.Time
}

const (
	bucketCount = 256
	histBase    = 100 * simtime.Nanosecond
	// histGrowth is chosen so bucketCount buckets cover ~8 decades:
	// each bucket is ~7.5% wider than the previous.
	histGrowth = 1.075
)

var bucketBounds = func() [bucketCount]simtime.Time {
	var b [bucketCount]simtime.Time
	v := float64(histBase)
	for i := range b {
		b[i] = simtime.Time(v)
		v *= histGrowth
	}
	return b
}()

// bucketSeed gives bucketOf its starting bucket without a logarithm. It is
// indexed by the bit length of t and the four bits below the leading one,
// and holds the bucket of the smallest t with that index. Such a cell spans
// at most a factor 17/16, less than histGrowth, so the true bucket is the
// seed or the one after it.
var bucketSeed = func() (seed [64 << 4]uint8) {
	for l := 5; l < 64; l++ { // a positive Time has at most 63 bits
		for m := 0; m < 16; m++ {
			lo := simtime.Time(16+m) << (l - 5)
			i := sort.Search(bucketCount, func(i int) bool { return bucketBounds[i] > lo })
			if i > 0 {
				i--
			}
			seed[l<<4|m] = uint8(i)
		}
	}
	return seed
}()

// bucketOf returns the i with bucketBounds[i] <= t < bucketBounds[i+1],
// clamped to the first and last bucket. The two loops define the result;
// the seed only decides how far they walk.
func bucketOf(t simtime.Time) int {
	if t <= histBase {
		return 0
	}
	l := bits.Len64(uint64(t))
	i := int(bucketSeed[l<<4|int(uint64(t)>>(l-5))&15])
	for i > 0 && bucketBounds[i] > t {
		i--
	}
	for i < bucketCount-1 && bucketBounds[i+1] <= t {
		i++
	}
	return i
}

// Record adds one latency observation.
func (h *Hist) Record(t simtime.Time) {
	if t < 0 {
		t = 0
	}
	h.buckets[bucketOf(t)]++
	h.count++
	h.sum += t
	if h.count == 1 || t < h.min {
		h.min = t
	}
	if t > h.max {
		h.max = t
	}
}

// Reset discards all observations.
func (h *Hist) Reset() { *h = Hist{} }

// Count returns the number of observations.
func (h *Hist) Count() uint64 { return h.count }

// Min returns the smallest observation.
func (h *Hist) Min() simtime.Time { return h.min }

// Max returns the largest observation.
func (h *Hist) Max() simtime.Time { return h.max }

// Mean returns the average observation.
func (h *Hist) Mean() simtime.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / simtime.Time(h.count)
}

// Percentile returns an upper bound on the p-th percentile (0 < p <= 100):
// the upper edge of the bucket containing it.
func (h *Hist) Percentile(p float64) simtime.Time {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.buckets {
		cum += c
		if cum >= target {
			if i+1 < bucketCount {
				return bucketBounds[i+1]
			}
			return h.max
		}
	}
	return h.max
}

// Merge adds the contents of other into h.
func (h *Hist) Merge(other *Hist) {
	if other.count == 0 {
		return
	}
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// Quantiles collects integer samples (queue depths, batch sizes) and reports
// exact order statistics. Unlike Hist it stores every sample, so it is meant
// for bounded post-run analysis (trace summaries), not hot-path metering.
type Quantiles struct {
	samples []int64
	sorted  bool
}

// Add records one sample.
func (q *Quantiles) Add(v int64) {
	q.samples = append(q.samples, v)
	q.sorted = false
}

func (q *Quantiles) sort() {
	if !q.sorted {
		sort.Slice(q.samples, func(i, j int) bool { return q.samples[i] < q.samples[j] })
		q.sorted = true
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using the
// nearest-rank definition, or 0 with no samples.
func (q *Quantiles) Percentile(p float64) int64 {
	if len(q.samples) == 0 {
		return 0
	}
	q.sort()
	rank := int(math.Ceil(p / 100 * float64(len(q.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(q.samples) {
		rank = len(q.samples)
	}
	return q.samples[rank-1]
}

// Max returns the largest sample, or 0 with no samples.
func (q *Quantiles) Max() int64 {
	if len(q.samples) == 0 {
		return 0
	}
	q.sort()
	return q.samples[len(q.samples)-1]
}

// Gbps converts bits per second to Gbps for display.
func Gbps(bps float64) float64 { return bps / 1e9 }

// SortedKeys returns the sorted keys of a string-keyed map, for stable
// report output.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
