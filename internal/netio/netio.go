// Package netio is the simulation substitute for the DPDK packet IO layer:
// multi-queue NIC ports with RSS, batched RX polling, line-rate accounting
// and drop counting (paper §3.1).
//
// Arrival processes are lazy: instead of scheduling one event per packet
// (15 Mpps would swamp the event queue), each RX queue computes how many
// packets have arrived since its last poll and materialises only the ones
// actually delivered in a burst. Deterministic arrival timestamps
// (k-th packet at start + (k+1)/rate) make latency measurements exact.
// Poll takes and stamps the burst's buffers, has the generator fill each of
// them, and then records their lengths.
//
// A burst may also be materialised ahead of its poll (stage.go): Predict
// says which seqs Poll(t, burst) will deliver, a Stage armed on the queue
// holds those frames, filled by the generator on another goroutine (a
// System's executor) while the event loop goes on, and Poll copies each
// staged frame instead of filling it. A frame is a pure function of
// (generator, port, seq), so a staged frame and a filled one are the same
// bytes.
//
// RSS is modelled as a uniform spread of flows over a port's RX queues,
// which packet.FlowHash5's measured spread justifies; each queue owns
// 1/nqueues of the port's offered rate.
package netio

import (
	"fmt"
	"math"

	"nba/internal/invariant"
	"nba/internal/mempool"
	"nba/internal/packet"
	"nba/internal/simtime"
	"nba/internal/stats"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

// Generator produces packet contents; Poll and a stage's fill call Fill
// once per packet. Implementations live in internal/gen.
type Generator interface {
	// Fill writes the frame for the seq-th packet of the given port into p:
	// its bytes and its length, nothing else. It must be deterministic in
	// (port, seq), must not read p's other metadata and must not write
	// generator state: queues of concurrent runs may share one generator,
	// and a stage's fill may run on a System's executor goroutine while the
	// same run's event loop fills other packets from the same generator.
	Fill(p *packet.Packet, port int, seq uint64)
	// MeanFrameLen returns the average frame length in bytes, used to
	// convert offered Gbps to packets per second.
	MeanFrameLen() float64
}

// PacketPool is the mempool type RX queues draw buffers from.
type PacketPool = mempool.Pool[packet.Packet]

// NewPacketPool creates a packet mempool.
func NewPacketPool(name string, n int) *PacketPool {
	return mempool.New[packet.Packet](name, n, nil)
}

// RxQueue is one hardware RX queue of a port, owned by exactly one worker
// (shared-nothing).
type RxQueue struct {
	Port  int
	Queue int
	// Tenant is the tenant app graph this queue feeds (0 in single-tenant
	// runs). Multi-tenant ports carve their queue set tenant-major, so a
	// queue belongs to exactly one tenant and batches never mix tenants.
	Tenant int32

	gen      Generator
	capacity int

	// Arrival process state. The rate may change (workload shifts); each
	// segment accumulates arrivals from its base.
	rate      float64 // packets per second arriving at this queue
	baseTime  simtime.Time
	baseCount uint64       // arrivals before baseTime
	stopTime  simtime.Time // no arrivals after this (0 = unbounded)

	arrivalsSeen uint64 // arrivals accounted so far
	delivered    uint64
	dropped      uint64 // queue overflow drops
	allocFailed  uint64 // mempool exhaustion drops
	hwm          uint64 // backlog high watermark (post-drop, so ≤ capacity)
	down         bool   // fault-injected flap: no delivery, arrivals overflow

	// stage is the burst materialised ahead of the next poll, nil when none
	// is armed; genEpoch counts SetGenerator calls, so a stage filled from
	// a generator the queue no longer has is never used.
	stage    *Stage
	genEpoch uint64

	// Tracer, when non-nil, receives rx / rx.drop events from Poll. Drops
	// are accounted delta-wise (overflow drops happen lazily in advance, so
	// each poll reports the drops accumulated since the previous one).
	Tracer           *trace.Tracer
	tracedDrops      uint64
	tracedAllocFails uint64

	// Checker, when non-nil, receives the queue's accounting after every
	// poll (the rxq.accounting invariant).
	Checker *invariant.Checker
}

// NewRxQueue creates a queue fed by gen at the given per-queue packet rate.
func NewRxQueue(port, queue int, gen Generator, ratePPS float64, capacity int) *RxQueue {
	if capacity <= 0 {
		panic(fmt.Sprintf("netio: rx queue capacity %d", capacity))
	}
	return &RxQueue{
		Port: port, Queue: queue,
		gen: gen, rate: ratePPS, capacity: capacity,
	}
}

// SetRate changes the arrival rate from time now on (workload change).
func (q *RxQueue) SetRate(now simtime.Time, ratePPS float64) {
	q.baseCount = q.totalArrivals(now)
	q.baseTime = now
	q.rate = ratePPS
}

// SetStop stops arrivals at time t.
func (q *RxQueue) SetStop(t simtime.Time) { q.stopTime = t }

// SetGenerator swaps the traffic generator (workload-change experiments).
// Sequence numbering continues, so determinism is preserved.
func (q *RxQueue) SetGenerator(gen Generator) {
	q.gen = gen
	q.genEpoch++
}

// Generator returns the queue's traffic generator.
func (q *RxQueue) Generator() Generator { return q.gen }

// SetDown flaps the queue (fault injection). While down, Poll delivers
// nothing; arrivals keep accruing and overflow into the drop counters once
// the queue fills, exactly as a dead link's ring behaves. Coming back up
// resumes delivery from the surviving backlog.
//
// Offered load is NOT re-steered away from a down queue: the NIC's RSS hash
// does not know a ring died, so the queue keeps receiving its share of the
// port rate and sheds it by head-drop once the ring is full. Runs that end
// with a queue still down must call FinalizeAccounting so arrivals since the
// last poll land in the drop counters instead of vanishing.
func (q *RxQueue) SetDown(down bool) { q.down = down }

// FinalizeAccounting advances arrival and head-drop overflow accounting to
// now without delivering or emitting trace events. Core calls it once per
// queue at end of run so that load offered to a flapped-down (or simply
// unpolled) queue is accounted as overflow drops rather than lost silently
// between the last poll and the end of the run. Backlog still within
// capacity is stranded — arrived but never delivered — and stays out of both
// the drop counters and the conservation identity.
func (q *RxQueue) FinalizeAccounting(now simtime.Time) { q.advance(now) }

// totalArrivals returns how many packets have arrived by time now.
//
//nba:hotpath
func (q *RxQueue) totalArrivals(now simtime.Time) uint64 {
	if q.stopTime > 0 && now > q.stopTime {
		now = q.stopTime
	}
	if now <= q.baseTime || q.rate <= 0 {
		return q.baseCount
	}
	dt := (now - q.baseTime).Seconds()
	return q.baseCount + uint64(dt*q.rate)
}

// arrivalTime returns when the k-th arrival (0-based, in the current rate
// segment accounting) occurred. Exact for a constant-rate segment; after a
// rate change it is exact for packets arriving in the new segment.
//
//nba:hotpath
func (q *RxQueue) arrivalTime(k uint64) simtime.Time {
	if k < q.baseCount || q.rate <= 0 {
		return q.baseTime
	}
	idx := k - q.baseCount
	return q.baseTime + simtime.Time(math.Round(float64(idx+1)/q.rate*float64(simtime.Second)))
}

// Backlog returns the packets waiting in the queue at time now (also
// advancing overflow accounting).
func (q *RxQueue) Backlog(now simtime.Time) int {
	q.advance(now)
	return int(q.backlog())
}

// backlog computes arrivals − delivered − dropped. The subtraction is in
// uint64, so a counter bug (delivering or dropping more than arrived) would
// wrap to a huge positive backlog and corrupt every downstream decision;
// under debugChecks that underflow panics at the point of corruption.
//
//nba:hotpath
func (q *RxQueue) backlog() uint64 {
	accounted := q.delivered + q.dropped
	if debugChecks && accounted > q.arrivalsSeen {
		panic(fmt.Sprintf(
			"netio: rx queue %d.%d backlog underflow: delivered %d + dropped %d > arrivals %d",
			q.Port, q.Queue, q.delivered, q.dropped, q.arrivalsSeen))
	}
	return q.arrivalsSeen - accounted
}

// advance brings arrival and overflow accounting up to now. Overflowing
// packets are dropped from the head of the queue (oldest first), which
// keeps delivered sequence numbers contiguous with arrival order.
//
//nba:hotpath
func (q *RxQueue) advance(now simtime.Time) {
	q.arrivalsSeen = q.totalArrivals(now)
	if backlog := q.backlog(); backlog > uint64(q.capacity) {
		q.dropped += backlog - uint64(q.capacity)
	}
	if b := q.backlog(); b > q.hwm {
		q.hwm = b
	}
}

// Predict returns the seqs Poll(t, burst) would deliver, [first, first+n),
// if no buffer allocation failed, without side effects: the arrival and
// head-drop accounting of advance runs on copies. A queue that is down
// delivers nothing, so n is 0. A failed allocation consumes its seq, so the
// seqs Poll does deliver at t are always inside the range.
//
//nba:hotpath
func (q *RxQueue) Predict(t simtime.Time, burst int) (first uint64, n int) {
	dropped := q.dropped
	var backlog uint64
	if arrivals := q.totalArrivals(t); arrivals > q.delivered+dropped {
		backlog = arrivals - q.delivered - dropped
	}
	if backlog > uint64(q.capacity) {
		dropped += backlog - uint64(q.capacity)
		backlog = uint64(q.capacity)
	}
	if q.down || burst <= 0 {
		return q.delivered + dropped, 0
	}
	return q.delivered + dropped, int(min(uint64(burst), backlog))
}

// HighWatermark returns the deepest backlog ever observed on the queue
// (after head-drop accounting, so it never exceeds the ring capacity).
func (q *RxQueue) HighWatermark() uint64 { return q.hwm }

// SetCapacity re-sizes the ring at time now (runtime reconfiguration).
// Arrival accounting is brought up to date under the old capacity first;
// shrinking below the surviving backlog then head-drops the overflow,
// exactly as arrival overflow does, so the accounting identity is
// unaffected. Growing simply leaves more head-room.
func (q *RxQueue) SetCapacity(now simtime.Time, capacity int) {
	if capacity <= 0 {
		panic(fmt.Sprintf("netio: rx queue capacity %d", capacity))
	}
	q.advance(now)
	q.capacity = capacity
	q.advance(now) // head-drop any backlog the smaller ring cannot hold
}

// Poll delivers up to burst packets into out, drawing buffers from pool.
// It returns the packets received. Buffer-pool exhaustion drops packets
// (and counts them in AllocFailed).
//
// Poll consumes the queue's armed stage, if any: a packet whose seq the
// stage holds, filled from the generator and for the port the queue still
// has, gets the staged frame copied; every other packet is filled as
// without a stage. The stage's fill must have finished, or never start,
// before Poll is called.
//
//nba:hotpath
func (q *RxQueue) Poll(now simtime.Time, burst int, pool *PacketPool, out []*packet.Packet) []*packet.Packet {
	start := len(out)
	q.advance(now)
	backlog := q.backlog()
	n := uint64(burst)
	if n > backlog {
		n = backlog
	}
	if q.down {
		n = 0 // overflow accounting (and its trace events) still run above
	}
	// Take and stamp the buffers; Seq is what identifies a packet to the
	// generator, and it skips the frames lost to pool exhaustion.
	for ; n > 0; n-- {
		p, err := pool.Get()
		if err != nil {
			q.allocFailed++
			q.dropped++ // the frame is lost, like an rx_nombuf drop
			continue
		}
		seq := q.delivered + q.dropped
		p.Stamp(seq, q.arrivalTime(seq), q.Port, q.Tenant)
		out = append(out, p)
		q.delivered++
	}
	if st := q.stage; st != nil {
		q.stage = nil
		q.fillStaged(st, out[start:])
	} else {
		q.fill(out[start:])
	}
	for _, p := range out[start:] {
		p.OrigLen = p.Length()
	}
	if q.Tracer != nil {
		if q.dropped > q.tracedDrops {
			q.Tracer.EmitT(now, trace.KindRxDrop, int32(q.Port), q.Tenant, "",
				int64(q.Queue), int64(q.dropped-q.tracedDrops), int64(q.allocFailed-q.tracedAllocFails), 0)
			q.tracedDrops = q.dropped
			q.tracedAllocFails = q.allocFailed
		}
		if delivered := len(out) - start; delivered > 0 {
			q.Tracer.EmitT(now, trace.KindRx, int32(q.Port), q.Tenant, "",
				int64(q.Queue), int64(delivered), int64(q.backlog()), 0)
		}
	}
	q.Checker.RxQueue(now, q.Port, q.Queue, q.arrivalsSeen, q.delivered, q.dropped, q.capacity)
	return out
}

// fill has the generator fill each of pkts.
//
//nba:hotpath
func (q *RxQueue) fill(pkts []*packet.Packet) {
	for _, p := range pkts {
		q.gen.Fill(p, q.Port, p.Seq)
	}
}

// Down reports whether the queue is currently flapped down.
func (q *RxQueue) Down() bool { return q.down }

// Stats returns (delivered, overflow+alloc drops, alloc failures).
func (q *RxQueue) Stats() (delivered, dropped, allocFailed uint64) {
	return q.delivered, q.dropped, q.allocFailed
}

// Port is one simulated NIC port: RX queues plus TX accounting. A port is
// born queue-less (&Port{HW: hw}); AddQueue carves its RX side.
type Port struct {
	HW  sysinfo.Port
	Rx  []*RxQueue
	TxM stats.Meter
}

// AddQueue appends one RX queue feeding tenant from gen — the one way a port
// gets queues, at construction (now = 0) and at a mid-run tenant admission
// alike. Core lays queues out tenant-major (tenant t's queue for same-socket
// worker w is index t*nworkers+w). The queue starts with zero rate — the
// caller splits per-queue rates with SetRate once the tenant set is known —
// and no arrivals accrue before `now` because the rate segment's base is
// anchored there.
func (p *Port) AddQueue(now simtime.Time, tenant int32, gen Generator, queueCap int) *RxQueue {
	q := NewRxQueue(p.HW.ID, len(p.Rx), gen, 0, queueCap)
	q.Tenant = tenant
	q.baseTime = now
	p.Rx = append(p.Rx, q) //nbalint:allow sharedstate admit-epoch queue add on the serial engine; report reads Rx after the event loop drains
	return q
}

// Transmit accounts one outgoing frame.
func (p *Port) Transmit(frameLen int) {
	p.TxM.Counter.Add(1, frameLen+sysinfo.WireOverheadBytes)
}

// OfferedPPS converts an offered wire-rate (bits per second) into packets
// per second for the generator's frame-size mix.
func OfferedPPS(offeredBps float64, gen Generator) float64 {
	return offeredBps / ((gen.MeanFrameLen() + sysinfo.WireOverheadBytes) * 8)
}
