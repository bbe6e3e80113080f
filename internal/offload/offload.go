// Package offload implements the worker-side offloading machinery: batch
// aggregation ahead of kernel launches and datablock-based copy accounting
// (paper §3.3).
//
// The paper aggregates up to 32 packet batches per device task because GPU
// efficiency needs thousands of packets, far more than the 64-packet
// computation batch. This package tracks pending aggregates per offloadable
// chain, computes the host<->device byte volumes from the chain's declared
// datablocks (deduplicated by name, which implements the datablock-reuse
// optimisation the paper proposes), and sums the chain's kernel costs.
package offload

import (
	"fmt"
	"sort"

	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/graph"
	"nba/internal/packet"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

// Pending is one under-construction device task.
type Pending struct {
	Head   *graph.Node
	Chain  []*graph.Node
	Resume int
	Device int // device annotation value (device index + 1)

	Batches  []*batch.Batch
	NPkts    int
	H2DBytes int
	D2HBytes int
	// KernelBytes tracks, per chain element, the payload bytes its kernel
	// touches (for per-byte kernel cost terms).
	KernelBytes []int

	FirstAdd simtime.Time

	plan *plan // shared with the head's other aggregates
}

// plan is what account needs to know about a chain: datablocks is the
// chain's deduplicated datablock set and kernelIn holds, per chain element,
// the H2D datablocks its kernel reads. It is resolved once per head
// (Datablocks() returns a fresh slice per call, and account runs per packet)
// and read-only afterwards, so every aggregate of the head shares it.
type plan struct {
	datablocks []element.Datablock
	kernelIn   [][]element.Datablock
}

// KernelTime returns the summed kernel execution time for the aggregate.
func (p *Pending) KernelTime(cm *sysinfo.CostModel) simtime.Time {
	var total simtime.Time
	for i, n := range p.Chain {
		kc := cm.KernelCostOf(n.Elem.Class())
		total += kc.Duration(p.NPkts, p.KernelBytes[i])
	}
	return total
}

// Aggregator manages pending aggregates for one worker.
type Aggregator struct {
	cm      *sysinfo.CostModel
	pending map[int]*Pending // keyed by head node ID
	plans   map[int]*plan    // keyed by head node ID
	heads   []int            // deterministic iteration order
	// taken is the slice Expired and TakeAll return, reused across calls:
	// Expired runs every worker iteration and mostly has nothing due.
	taken []*Pending

	// AgeScale scales the aggregation age limit (MaxAggDelay). The overload
	// governor shrinks it (e.g. 0.5) at LevelTrim and above so packets stop
	// maturing behind a congested device. Zero or one means nominal.
	AgeScale float64
}

// NewAggregator creates an empty aggregator.
func NewAggregator(cm *sysinfo.CostModel) *Aggregator {
	return &Aggregator{cm: cm, pending: map[int]*Pending{}, plans: map[int]*plan{}}
}

// Add appends a batch to the aggregate for the given chain. It returns a
// non-nil Pending when the aggregate reached the configured limit and must
// be flushed now.
func (a *Aggregator) Add(now simtime.Time, head *graph.Node, chain []*graph.Node, resume int, b *batch.Batch) (*Pending, error) {
	dev := int(b.Anno[batch.AnnoDevice])
	p := a.pending[head.ID]
	if p == nil {
		pl, err := a.planFor(head, chain)
		if err != nil {
			return nil, err
		}
		p = &Pending{
			Head: head, Chain: chain, Resume: resume, Device: dev,
			FirstAdd: now, KernelBytes: make([]int, len(chain)),
			Batches: make([]*batch.Batch, 0, a.cm.MaxAggBatches),
			plan:    pl,
		}
		a.pending[head.ID] = p
		a.heads = append(a.heads, head.ID)
	}
	if p.Device != dev {
		return nil, fmt.Errorf("offload: aggregate for %s mixes devices %d and %d", head.Name, p.Device, dev)
	}
	if p.Resume != resume {
		return nil, fmt.Errorf("offload: aggregate for %s mixes resume points %d and %d", head.Name, p.Resume, resume)
	}

	p.Batches = append(p.Batches, b)
	return a.account(p, b), nil
}

// planFor returns the datablock plan of head's chain, resolving it on the
// head's first aggregate.
func (a *Aggregator) planFor(head *graph.Node, chain []*graph.Node) (*plan, error) {
	if pl := a.plans[head.ID]; pl != nil {
		return pl, nil
	}
	pl := &plan{kernelIn: make([][]element.Datablock, len(chain))}
	seen := map[string]element.Datablock{}
	for i, n := range chain {
		off := n.Offloadable()
		if off == nil {
			return nil, fmt.Errorf("offload: node %s in chain is not offloadable", n.Name)
		}
		for _, db := range off.Datablocks() {
			if db.H2D {
				pl.kernelIn[i] = append(pl.kernelIn[i], db)
			}
			if prev, dup := seen[db.Name]; dup {
				// Shared datablock: widen directions, copy bytes once.
				prev.H2D = prev.H2D || db.H2D
				prev.D2H = prev.D2H || db.D2H
				seen[db.Name] = prev
				continue
			}
			seen[db.Name] = db
		}
	}
	for _, name := range sortedNames(seen) {
		pl.datablocks = append(pl.datablocks, seen[name])
	}
	a.plans[head.ID] = pl
	return pl, nil
}

// account updates byte/packet tallies for a newly added batch and reports
// the Pending if it is now full.
func (a *Aggregator) account(p *Pending, b *batch.Batch) *Pending {
	b.ForEachLive(func(i int, pkt *packet.Packet) {
		frameLen := pkt.Length()
		p.NPkts++
		for _, db := range p.plan.datablocks {
			n := db.BytesFor(frameLen)
			if db.H2D {
				p.H2DBytes += n
			}
			if db.D2H {
				p.D2HBytes += n
			}
		}
		for i, in := range p.plan.kernelIn {
			for _, db := range in {
				p.KernelBytes[i] += db.BytesFor(frameLen)
			}
		}
	})
	if len(p.Batches) >= a.cm.MaxAggBatches {
		a.remove(p.Head.ID)
		return p
	}
	return nil
}

// Expired removes and returns aggregates older than MaxAggDelay (scaled by
// AgeScale when the overload governor has trimmed it), in the order they
// were opened. The returned slice is the aggregator's and is valid until its
// next Expired or TakeAll.
//
//nba:hotpath
func (a *Aggregator) Expired(now simtime.Time) []*Pending {
	maxAge := a.maxAge()
	// Compact heads in place: the survivors keep their order.
	taken, kept := a.taken[:0], a.heads[:0]
	for _, id := range a.heads {
		if p := a.pending[id]; now-p.FirstAdd >= maxAge {
			delete(a.pending, id)
			taken = append(taken, p)
		} else {
			kept = append(kept, id)
		}
	}
	a.taken, a.heads = taken, kept
	return taken
}

// NextExpiry returns the instant the oldest pending aggregate expires
// (Expired at that time takes it) if AgeScale does not change first.
// Aggregates open in time order, so the oldest is the first head.
func (a *Aggregator) NextExpiry() (simtime.Time, bool) {
	if len(a.heads) == 0 {
		return 0, false
	}
	return a.pending[a.heads[0]].FirstAdd + a.maxAge(), true
}

// maxAge is MaxAggDelay scaled by AgeScale.
func (a *Aggregator) maxAge() simtime.Time {
	if a.AgeScale > 0 && a.AgeScale != 1 {
		return simtime.Time(float64(a.cm.MaxAggDelay) * a.AgeScale)
	}
	return a.cm.MaxAggDelay
}

// TakeAll removes and returns every pending aggregate (idle flush), under
// the same contract as Expired.
func (a *Aggregator) TakeAll() []*Pending {
	taken := a.taken[:0]
	for _, id := range a.heads {
		taken = append(taken, a.pending[id])
		delete(a.pending, id)
	}
	a.taken, a.heads = taken, a.heads[:0]
	return taken
}

// PendingCount returns the number of open aggregates.
func (a *Aggregator) PendingCount() int { return len(a.pending) }

func (a *Aggregator) remove(id int) {
	delete(a.pending, id)
	for i, h := range a.heads {
		if h == id {
			a.heads = append(a.heads[:i], a.heads[i+1:]...)
			break
		}
	}
}

func sortedNames(m map[string]element.Datablock) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
