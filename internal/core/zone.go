package core

import (
	"sync"
	"weak"

	"nba/internal/batch"
	"nba/internal/integrity"
	"nba/internal/packet"
)

// zone is a System's mempool storage: one packet slab and one batch slab,
// carved per worker (DPDK's one memzone, many mempools), plus each worker's
// released integrity shadows. Its life is carve → drain → recycle: NewSystem
// carves the workers' pools from it, a Run that drains every pool hands it
// back, and the next System of the same shape takes it instead of
// allocating and zeroing tens of MB again.
type zone struct {
	pkts     []packet.Packet
	batches  []batch.Batch
	perPkt   int // packets per worker
	perBatch int // batches per worker
	// used is each worker's (packet, batch) pool HighWater at release. A
	// NewOver pool writes only that prefix of its carve, so clearing it
	// makes a recycled zone byte-identical to a fresh one.
	used [][2]int
	// shadows is each worker's sentinel free list, handed over with the
	// pools: a drained batch pool means no shadow is in use. Released
	// shadows are reset, not cleared: Snapshot rewrites all a kernel reads
	// (frame, annotations, results, mask), as for one reused within a run.
	shadows [][]*integrity.Shadow
	// self is made with the zone, so handing it back allocates nothing.
	self weak.Pointer[zone]
}

// spare is the zone of the last System whose Run drained every pool. The
// reference is weak: nothing may ever build another System of that shape,
// and a strong one would keep the whole zone live across GC cycles. Once
// the GC reclaims it, the next System allocates afresh.
var spare struct {
	mu sync.Mutex
	z  weak.Pointer[zone]
}

// takeZone returns storage for nw workers' pools: the spare when it has this
// shape and the GC has not reclaimed it, cleared where its last owner wrote;
// a fresh allocation otherwise.
func takeZone(nw, perPkt, perBatch int) *zone {
	spare.mu.Lock()
	z := spare.z.Value()
	if z != nil && len(z.used) == nw && z.perPkt == perPkt && z.perBatch == perBatch {
		spare.z = weak.Pointer[zone]{}
	} else {
		z = nil
	}
	spare.mu.Unlock()
	if z == nil {
		// One allocation per type, before the rest of NewSystem: a System is
		// usually built just after its predecessor became garbage, while the
		// scavenger returns that memory to the OS, and one early span is
		// zeroed in resident pages where per-worker ones would fault theirs in.
		z = &zone{
			pkts:     make([]packet.Packet, nw*perPkt),
			batches:  make([]batch.Batch, nw*perBatch),
			perPkt:   perPkt,
			perBatch: perBatch,
			used:     make([][2]int, nw),
			shadows:  make([][]*integrity.Shadow, nw),
		}
		z.self = weak.Make(z)
		return z
	}
	for i, u := range z.used {
		clear(z.workerPkts(i)[:u[0]])
		clear(z.workerBatches(i)[:u[1]])
	}
	return z
}

// workerPkts / workerBatches are worker i's carve.
func (z *zone) workerPkts(i int) []packet.Packet {
	return z.pkts[i*z.perPkt : (i+1)*z.perPkt]
}

func (z *zone) workerBatches(i int) []batch.Batch {
	return z.batches[i*z.perBatch : (i+1)*z.perBatch]
}

// release makes z the spare, shadows included, if every worker pool is
// drained; with any object still outstanding (a watchdog-stopped run) it
// keeps z out of circulation.
func (z *zone) release(workers []*worker) {
	for i, w := range workers {
		ps, bs := w.pktPool.Stats(), w.batchPool.Stats()
		if ps.Outstanding != 0 || bs.Outstanding != 0 {
			return
		}
		z.used[i] = [2]int{ps.HighWater, bs.HighWater}
	}
	setSpare(z)
}

func setSpare(z *zone) {
	spare.mu.Lock()
	spare.z = z.self
	spare.mu.Unlock()
}
