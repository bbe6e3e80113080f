// Package batch implements packet batches as first-class objects (paper
// §3.2, Figure 4): a lightweight structure of pointer arrays, per-packet
// processing results, a per-batch annotation set, and a mask that lets the
// framework exclude dropped or branched-out packets without shrinking the
// arrays.
package batch

import (
	"fmt"

	"nba/internal/mempool"
	"nba/internal/packet"
)

// MaxBatchSize is the largest computation batch the framework forms. The
// paper's default IO/computation batch size is 64 packets.
const MaxBatchSize = 256

// NumAnnos is the number of batch-level annotation slots (cache-line sized,
// like the per-packet set).
const NumAnnos = 7

// Batch-level annotation slots.
const (
	// AnnoDevice is the load-balancer decision: the index of the
	// computation device that should process offloadable elements for this
	// batch, or CPUDevice to run them on the CPU (paper §3.4: "the load
	// balancing decision is stored as a batch-level annotation").
	AnnoDevice = iota
	AnnoUser0
	AnnoUser1
	// AnnoTenant is the tenant app graph the batch belongs to. Batches are
	// formed from one RX queue's packets and never mix tenants, so a single
	// batch-level slot suffices (mirrors the paper's batch-level LB slot).
	AnnoTenant
)

// CPUDevice is the AnnoDevice value that keeps offloadable elements on the CPU.
const CPUDevice = 0

// Result values stored per packet. Non-negative results are output-edge
// indices of the element that produced them.
const (
	// ResultDrop marks the packet for release.
	ResultDrop = -1
)

// Batch is a set of packets traversing the element graph together.
type Batch struct {
	pkts    [MaxBatchSize]*packet.Packet
	results [MaxBatchSize]int
	masked  [MaxBatchSize]bool
	count   int // slots in use (including masked)
	live    int // unmasked slots

	// Anno is the batch-level annotation set.
	Anno [NumAnnos]uint64
}

// Reset clears the batch for reuse (mempool.Resetter).
//
//nba:hotpath
func (b *Batch) Reset() {
	for i := 0; i < b.count; i++ {
		b.pkts[i] = nil
		b.results[i] = 0
		b.masked[i] = false
	}
	b.count = 0
	b.live = 0
	b.Anno = [NumAnnos]uint64{}
}

// Add appends a packet; it reports false when the batch is full.
//
//nba:hotpath
func (b *Batch) Add(p *packet.Packet) bool {
	if b.count >= MaxBatchSize {
		return false
	}
	b.pkts[b.count] = p
	b.results[b.count] = 0
	b.masked[b.count] = false
	b.count++
	b.live++
	return true
}

// Count returns the number of slots in use, including masked slots.
func (b *Batch) Count() int { return b.count }

// Live returns the number of unmasked packets.
func (b *Batch) Live() int { return b.live }

// Packet returns the packet in slot i (may be masked).
func (b *Batch) Packet(i int) *packet.Packet { return b.pkts[i] }

// IsMasked reports whether slot i is masked out.
func (b *Batch) IsMasked(i int) bool { return b.masked[i] }

// Mask excludes slot i from further processing. The caller owns the packet
// afterwards (it is NOT released here). Masking an already-masked slot
// panics — it indicates double handling.
//
//nba:hotpath
func (b *Batch) Mask(i int) {
	if b.masked[i] {
		panic(fmt.Sprintf("batch: slot %d masked twice", i))
	}
	b.masked[i] = true
	b.live--
}

// Result returns the processing result of slot i.
func (b *Batch) Result(i int) int { return b.results[i] }

// SetResult stores the processing result of slot i.
func (b *Batch) SetResult(i, r int) { b.results[i] = r }

// ForEachLive calls fn for every unmasked slot.
//
//nba:hotpath
func (b *Batch) ForEachLive(fn func(i int, p *packet.Packet)) {
	for i := 0; i < b.count; i++ {
		if !b.masked[i] {
			fn(i, b.pkts[i])
		}
	}
}

// TotalBytes returns the summed frame length of live packets.
//
//nba:hotpath
func (b *Batch) TotalBytes() int {
	total := 0
	for i := 0; i < b.count; i++ {
		if !b.masked[i] {
			total += b.pkts[i].Length()
		}
	}
	return total
}

// Pool is a batch mempool.
type Pool = mempool.Pool[Batch]

// NewPool creates a batch pool of the given capacity.
func NewPool(name string, n int) *Pool {
	return mempool.New[Batch](name, n, nil)
}

// ResultHistogram tallies live packets per result value. Results must be in
// [-1, maxResult]. The histogram is keyed by result+1 so ResultDrop lands in
// slot 0. It is the input to the framework's split-vs-mask decision.
func (b *Batch) ResultHistogram(maxResult int) []int {
	hist := make([]int, maxResult+2)
	b.ResultHistogramInto(hist, maxResult)
	return hist
}

// ResultHistogramInto is ResultHistogram tallying into caller-provided
// storage, so per-branch accounting on the hot path reuses one scratch
// slice instead of allocating. dst must have length >= maxResult+2; it is
// zeroed first.
//
//nba:hotpath
func (b *Batch) ResultHistogramInto(dst []int, maxResult int) {
	for i := range dst[:maxResult+2] {
		dst[i] = 0
	}
	for i := 0; i < b.count; i++ {
		if b.masked[i] {
			continue
		}
		r := b.results[i]
		if r < ResultDrop || r > maxResult {
			panic(fmt.Sprintf("batch: result %d out of range [-1,%d]", r, maxResult))
		}
		dst[r+1]++
	}
}
