package core

import (
	"fmt"

	"nba/internal/batch"
	"nba/internal/conflang"
	"nba/internal/element"
	"nba/internal/gpu"
	"nba/internal/graph"
	"nba/internal/mempool"
	"nba/internal/netio"
	"nba/internal/offload"
	"nba/internal/overload"
	"nba/internal/packet"
	"nba/internal/sched"
	"nba/internal/simtime"
	"nba/internal/stats"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

// lane is one tenant's slice of a worker: its pipeline replica, its RX
// queues on the local ports, its offload aggregator and CoDel state, and
// every per-tenant counter, so each packet's whole journey is attributed to
// the tenant whose queue delivered it. A single-tenant run has exactly one
// lane and behaves bit-identically to the pre-tenancy worker.
type lane struct {
	tenant int32
	g      *graph.Graph
	pctx   element.ProcContext
	// kctx is the context the device executor runs the lane's kernels with:
	// pctx at construction, on the device's scratch and without the lane's
	// RNG. Nothing writes it afterwards.
	kctx element.ProcContext

	rxqs []*netio.RxQueue
	agg  *offload.Aggregator

	// Overload control: CoDel runs when its Interval is set, which
	// cfg.Overload's defaults always do.
	codel overload.CoDel

	// ctr is the lane's own slice of the accounting table: everything except
	// the RX-queue statistics and the per-node drop counts, which counters()
	// folds in. Its GraphDrops holds only packets the framework dropped
	// outside any element (batch alloc failure, offload misconfiguration).
	ctr                 stats.Counters
	txWireBytesMeasured uint64 // wire bytes transmitted inside the measurement window
	latency             stats.Hist
	// recent is the lane's control cell's latency window (controlCell),
	// nil unless the tenant's socket controller is bounded.
	recent      *stats.Hist
	latencySkip int
}

// counters returns the lane's full accounting view: its own table plus its
// RX queues' NIC statistics and its pipeline's node drops. Each queue and
// each graph replica belongs to exactly one lane, so summing lane views
// never double-counts.
func (ln *lane) counters() stats.Counters {
	c := ln.ctr
	for _, q := range ln.rxqs {
		d, dr, af := q.Stats()
		c.RxDelivered += d
		c.RxDropped += dr
		c.AllocFailed += af
	}
	c.GraphDrops += ln.g.DropUnrouted
	for _, n := range ln.g.Nodes {
		c.GraphDrops += n.Dropped
	}
	return c
}

// active reports whether the lane's tenant is in service. An evicted
// tenant's lane stops being polled, flushed or counted toward retirement,
// but stays in place (tenant slots are grow-only so tenant-major queue
// indexing never shifts).
func (w *worker) active(ln *lane) bool { return w.sys.tstate[ln.tenant].active }

// worker is one worker thread: a replicated pipeline per tenant on its own
// core, polling its RSS RX queues in a run-to-completion IO loop (paper
// §3.2, Figure 6). Multi-tenant workers interleave their lanes under a
// share-weighted round-robin so one tenant's burst cannot monopolise the
// iteration budget.
type worker struct {
	sys    *System
	id     int // global worker ID
	socket int
	local  int // index among the socket's workers (selects RX queues)
	// localPorts is the socket's port index set.
	localPorts []int
	// dev is the worker's device path: its offloads, the tasks it has out
	// and their completions.
	dev devicePath

	lanes []*lane
	// cur is the lane whose graph is executing; the Env callbacks attribute
	// transmissions, drops and offloads to it. Set before any pipeline entry
	// (injection, flush, resume).
	cur *lane
	// wrr orders lanes within each iteration by tenant share, so RX-budget
	// exhaustion rotates fairly instead of starving high-index tenants.
	wrr *sched.WRR

	pktPool   *netio.PacketPool
	batchPool *batch.Pool
	// stage materialises the next pass's RX bursts on the executor.
	stage stager
	// burst receives each RX poll. It is a field, so that iterate does not
	// allocate it on every pass.
	burst []*packet.Packet

	// cycles accumulates cost within the current IO-loop iteration.
	cycles    simtime.Cycles
	iterStart simtime.Time
	stopped   bool

	// iterateFn is the method value w.iterate, bound once at construction so
	// rescheduling the IO loop every iteration does not allocate a closure.
	// A parked worker's wake event runs it too.
	iterateFn func()

	// Parking (DESIGN.md §3). A pass that did no work and could not poll
	// leaves the worker parked instead of rescheduling it IdlePoll later:
	// its next pass runs on the same grid, parkBase + k·IdlePoll, at the
	// first grid point at or after a deadline computed at park time
	// (wakeAt, armed as wake), or earlier if an event wakes it (unpark).
	// wakeAt is 0 when no wake is armed.
	parked   bool
	parkBase simtime.Time
	wakeAt   simtime.Time
	wake     simtime.Timer
}

// ioBatchSize is the RX burst size: the paper's and its configuration's
// IO batch of 64 packets.
const ioBatchSize = 64

// parkingOff makes every worker poll on its IdlePoll grid again instead of
// parking: a switch for tests only (export_test.go), which check that
// parking changes no output.
var parkingOff bool

// newWorker builds a lane-less worker; System.installTenant adds one lane per
// tenant.
func newWorker(s *System, id, socket, local int, localPorts []int, dev *gpu.Device) *worker {
	w := &worker{
		sys:        s,
		id:         id,
		socket:     socket,
		local:      local,
		localPorts: localPorts,
		dev:        newDevicePath(s, id, dev),
	}
	w.wrr = sched.NewWRR(nil) // installTenant re-splits it as lanes arrive
	w.pktPool = mempool.NewOver(fmt.Sprintf("pkt.w%d", id), s.zone.workerPkts(id), nil)
	w.batchPool = mempool.NewOver(fmt.Sprintf("batch.w%d", id), s.zone.workerBatches(id), nil)
	w.stage = s.zone.workerStager(id)
	w.stage.exec, w.stage.maxBackoff = &s.exec, maxStageBackoff
	w.burst = make([]*packet.Packet, 0, ioBatchSize)
	w.iterateFn = w.iterate
	return w
}

// buildLane constructs tenant t's lane on this worker from the tenant's
// parsed graph. The tenant's NodeLocal rows and tenant-major RX queues must
// already be in place at index t.
func (w *worker) buildLane(t int, parsed *conflang.Config) (*lane, error) {
	s := w.sys
	ln := &lane{tenant: int32(t)}
	ndev := 0
	if w.dev.device != nil {
		ndev = 1
	}
	cctx := &element.ConfigContext{
		Socket:     w.socket,
		Worker:     w.id,
		NodeLocal:  s.nodeLocals[w.socket][t],
		NumPorts:   len(s.cfg.Topology.Ports),
		NumDevices: ndev,
		Rand:       s.newLaneRand(w.id, int32(t)),
	}
	g, err := graph.Build(parsed, cctx, s.cfg.CostModel, *s.cfg.GraphOpts)
	if err != nil {
		return nil, fmt.Errorf("core: worker %d tenant %d: %w", w.id, t, err)
	}
	ln.g = g
	if s.cfg.Tracer != nil {
		ln.g.Tracer = s.cfg.Tracer
		ln.g.TraceNow = w.now
		ln.g.TraceActor = int32(w.id)
		ln.g.TraceTenant = int32(t)
	}
	ln.pctx = element.ProcContext{
		Worker:    w.id,
		Socket:    w.socket,
		NodeLocal: s.nodeLocals[w.socket][t],
		Rand:      cctx.Rand,
	}
	// Memory-bandwidth contention: mild per-extra-worker inflation
	// (paper Figure 11a's per-core droop).
	ln.pctx.CostScale = 1 + s.cfg.CostModel.MemContentionPerWorker*float64(s.cfg.WorkersPerSocket-1)
	if s.cfg.ForceRemoteMemory {
		ln.pctx.CostScale *= s.cfg.CostModel.NUMAPenalty
	}
	ln.kctx = ln.pctx
	ln.kctx.Rand = nil
	ln.kctx.Scratch = element.ScratchDevice
	// Tenant-major queue carve: tenant t's queue for this worker is
	// index t*WorkersPerSocket+local on every local port.
	for _, pid := range w.localPorts {
		ln.rxqs = append(ln.rxqs, s.ports[pid].Rx[t*s.cfg.WorkersPerSocket+w.local])
	}
	ln.agg = offload.NewAggregator(s.cfg.CostModel)
	if oc := s.cfg.Overload; oc != nil {
		ln.codel = overload.CoDel{Interval: oc.CoDelInterval}
	}
	return ln, nil
}

// now returns the worker's current position in virtual time: the iteration
// start plus the cycles consumed so far this iteration.
//
//nba:hotpath
func (w *worker) now() simtime.Time {
	return w.iterStart + simtime.CyclesToTime(w.cycles, w.sys.cfg.Topology.CoreFreqHz)
}

// iterate is one run-to-completion IO loop pass: evacuate a stalled socket
// device, drain offload completions, poll each lane's RX queues in
// share-weighted order, run batches through that lane's pipeline, flush aged
// offload aggregates, then reschedule after the consumed virtual time.
//
//nba:hotpath
func (w *worker) iterate() {
	if w.stopped {
		return
	}
	w.parked, w.wakeAt = false, 0
	w.dev.watchdog(w.sys.cfg.TaskTimeout)
	cm := w.sys.cfg.CostModel
	w.iterStart = w.sys.eng.Now()
	w.cycles = 0
	for _, ln := range w.lanes {
		ln.pctx.Now = w.iterStart
	}

	// 1. Offload completions.
	w.cycles += cm.CompletionPoll
	didWork := w.dev.drain(w)

	// 2. RX polling, unless backpressured by outstanding device tasks.
	// Iterations are bounded in virtual time so that very expensive
	// per-packet work (e.g. IDS over MTU frames) still yields a responsive
	// IO loop rather than multi-millisecond quanta. Lanes are visited in
	// the WRR round's order, so when the budget cuts a round short, the
	// front position — and with it the loss — rotates by tenant share.
	iterBudget := simtime.TimeToCycles(cm.MaxIterTime, w.sys.cfg.Topology.CoreFreqHz)
	polled := !w.dev.backpressured(w.sys)
	if polled {
		w.settleStages()
	polling:
		for _, t := range w.wrr.Round() {
			ln := w.lanes[t]
			if !w.active(ln) {
				continue
			}
			w.cur = ln
			for _, q := range ln.rxqs {
				if iterBudget > 0 && w.cycles >= iterBudget {
					break polling
				}
				w.cycles += cm.RxBurstFixed
				pkts := q.Poll(w.iterStart, ioBatchSize, w.pktPool, w.burst)
				if len(pkts) == 0 {
					continue
				}
				didWork = true
				w.cycles += cm.RxPerPacket * simtime.Cycles(len(pkts))
				if ln.codel.Interval > 0 {
					pkts = w.shedSojourn(pkts)
					if len(pkts) == 0 {
						continue
					}
				}
				w.injectPackets(pkts)
			}
		}
	}

	// 3. Flush aged aggregates; on a genuinely idle pass (no work and no
	// tasks in flight) flush everything pending so low loads are not stuck
	// waiting for full aggregates. While tasks are in flight the aggregate
	// keeps growing — flushing it early would shrink device batches and
	// waste kernel-launch overhead. Lane-index order keeps the flush
	// sequence deterministic regardless of the WRR phase.
	pending := 0
	for _, ln := range w.lanes {
		if !w.active(ln) {
			continue
		}
		w.cur = ln
		for _, p := range ln.agg.Expired(w.iterStart) {
			w.dev.flush(w, p)
		}
		pending += ln.agg.PendingCount()
	}
	if !didWork && len(w.dev.tasks) == 0 && pending > 0 {
		for _, ln := range w.lanes {
			if !w.active(ln) {
				continue
			}
			w.cur = ln
			for _, p := range ln.agg.TakeAll() {
				w.dev.flush(w, p)
			}
		}
		didWork = true
	}

	// 4. Reschedule, or park a pass that was held back and found nothing:
	// only an event or a deadline can make the next one differ. The state
	// a step 3 flush changed is in place by now.
	elapsed := simtime.CyclesToTime(w.cycles, w.sys.cfg.Topology.CoreFreqHz)
	next := elapsed
	if !didWork || elapsed == 0 {
		next = cm.IdlePoll
	}
	if w.done() {
		w.stopped = true
		return
	}
	if !didWork && !polled && !parkingOff {
		w.park()
		return
	}
	if polled && !w.dev.backpressured(w.sys) {
		w.armStages(w.iterStart + next)
	}
	w.sys.eng.After(next, w.iterateFn)
}

// park parks the worker at the end of a pass that did no work and did not
// poll. Each pass it skips would have been the same: backpressure holds RX
// polling back, nothing completes, no aggregate expires, no device stalls
// and the worker cannot retire, until an event changes one of these (the
// System then calls unpark) or a deadline passes. The wake is armed for the
// first grid point at or after the earliest deadline; with none, the
// worker waits for an event. A wake that comes early runs an idle pass, as
// the skipped pass at that instant would have, and parks again.
//
//nba:hotpath
func (w *worker) park() {
	w.parked, w.parkBase = true, w.iterStart
	at, ok := w.parkDeadline()
	if !ok {
		return
	}
	idle := w.sys.cfg.CostModel.IdlePoll
	k := max(1, (at-w.parkBase+idle-1)/idle)
	w.wakeAt = w.parkBase + k*idle
	// Ordered as the skipped pass there would have been: as of the grid
	// point before it, which scheduled it. For k = 1 that is now.
	w.wake = w.sys.eng.AtAsOf(w.wakeAt, w.wakeAt-idle, w.iterateFn)
}

// parkDeadline returns the earliest instant at which a parked worker's
// pass could differ from the parking pass without an event: an aggregate
// expiring, or one of the device path's deadlines (its backlog decaying or
// its stall watchdog firing). Backpressure needs a task out, so a parked
// worker cannot retire before its completion arrives, which wakes it: the
// end of arrivals is no deadline.
func (w *worker) parkDeadline() (simtime.Time, bool) {
	at, ok := w.dev.deadline(w.sys, w.sys.eng.Now())
	for _, ln := range w.lanes {
		if !w.active(ln) {
			continue
		}
		if t, pending := ln.agg.NextExpiry(); pending && (!ok || t < at) {
			at, ok = t, true
		}
	}
	return at, ok
}

// unpark tells a parked worker that an event may have changed what its
// next pass sees. Its next pass moves to the first grid point whose skipped
// pass would have come after this event: the first at or after now, or the
// one after it if the pass at now already ran this instant (it was
// scheduled a whole IdlePoll before the running event). An armed wake is
// moved in place; a later one is left alone. A worker that is not parked
// is left alone too.
//
//nba:hotpath
func (w *worker) unpark() {
	if !w.parked {
		return
	}
	eng := w.sys.eng
	idle := w.sys.cfg.CostModel.IdlePoll
	now := eng.Now()
	at := w.parkBase + idle
	if now > at {
		at += (now - at + idle - 1) / idle * idle
	}
	if at == now && eng.RunningAsOf() > at-idle {
		at += idle
	}
	switch {
	case w.wakeAt == 0:
		w.wake = eng.AtAsOf(at, at-idle, w.iterateFn)
	case at < w.wakeAt:
		eng.Move(w.wake, at, at-idle)
	default:
		return
	}
	w.wakeAt = at
}

// laneDrained is the drain predicate for one lane, shared by worker
// retirement and the evict epoch: no outstanding device tasks, no pending
// aggregates, and every live RX queue empty.
func (w *worker) laneDrained(t int, now simtime.Time) bool {
	ln := w.lanes[t]
	if ln.agg.PendingCount() > 0 {
		return false
	}
	for _, it := range w.dev.tasks {
		if it.ln == ln {
			return false
		}
	}
	for _, q := range ln.rxqs {
		// A queue still flapped down can never drain; its backlog is stranded
		// (the packets were never materialised), so it must not hold the lane.
		if q.Down() {
			continue
		}
		if q.Backlog(now) > 0 {
			return false
		}
	}
	return true
}

// done reports whether the worker can retire: arrivals stopped, no
// outstanding tasks or unprocessed completions, every active lane drained.
func (w *worker) done() bool {
	now := w.sys.eng.Now()
	if now < w.sys.stopTime || len(w.dev.tasks) > 0 || w.dev.completions.Len() > 0 {
		return false
	}
	for t, ln := range w.lanes {
		// An evicted lane was drained by its epoch; stranded backlog on its
		// zero-rated queues is finalized into drop accounting at report time
		// and must not keep the worker alive.
		if w.active(ln) && !w.laneDrained(t, now) {
			return false
		}
	}
	return true
}

// injectPackets wraps received packets into computation batches and runs
// them through the current lane's pipeline.
//
//nba:hotpath
func (w *worker) injectPackets(pkts []*packet.Packet) {
	cm := w.sys.cfg.CostModel
	ln := w.cur
	for off := 0; off < len(pkts); off += w.sys.cfg.CompBatchSize {
		end := off + w.sys.cfg.CompBatchSize
		if end > len(pkts) {
			end = len(pkts)
		}
		b, err := w.batchPool.Get()
		if err != nil {
			// Batch pool exhausted: the frames are already materialised,
			// so they are dropped here (counted separately from NIC drops).
			for _, p := range pkts[off:end] {
				ln.ctr.GraphDrops++
				w.pktPool.Put(p)
			}
			continue
		}
		w.cycles += cm.BatchAlloc + cm.BatchInitPerPacket*simtime.Cycles(end-off)
		for _, p := range pkts[off:end] {
			b.Add(p)
		}
		ln.g.Inject(w, &ln.pctx, b)
	}
}

// dropBatch is the one framework drop path (offload misconfiguration, an
// inconsistent aggregate, quarantine): every live packet of b returns to
// the pool charged to the drop class counter, and the batch is recycled.
//
//nba:hotpath
func (w *worker) dropBatch(b *batch.Batch, class *uint64) {
	b.ForEachLive(func(i int, pkt *packet.Packet) {
		*class++
		w.pktPool.Put(pkt)
	})
	w.PutBatch(b)
}

// shedSojourn applies the current lane's CoDel shedder to one polled RX
// burst: packets the control law selects are dropped before pipeline
// injection, in place, preserving arrival order of the survivors.
//
//nba:hotpath
func (w *worker) shedSojourn(pkts []*packet.Packet) []*packet.Packet {
	now := w.now()
	ln := w.cur
	kept := pkts[:0]
	var shed int64
	var maxSojourn simtime.Time
	for _, p := range pkts {
		sojourn := now - p.Arrival
		if sojourn < 0 {
			sojourn = 0
		}
		if sojourn > maxSojourn {
			maxSojourn = sojourn
		}
		if ln.codel.ShouldDrop(now, sojourn) {
			shed++
			ln.ctr.ShedPackets++
			w.pktPool.Put(p)
			continue
		}
		kept = append(kept, p)
	}
	if shed > 0 {
		w.sys.cfg.Tracer.EmitT(now, trace.KindOverloadShed, int32(w.id), ln.tenant, "codel",
			shed, 0, int64(maxSojourn), int64(w.sys.overloadLevel(w.socket, ln.tenant)))
	}
	return kept
}

// --- graph.Env implementation ---

// Transmit implements graph.Env, attributing the transmission to the
// current lane's tenant.
//
//nba:hotpath
func (w *worker) Transmit(pkt *packet.Packet) {
	ln := w.cur
	if pkt.Tainted && w.dev.sentinel != nil {
		// Oracle, not behaviour: a corrupted frame reaching TX while the
		// sentinel is armed means quarantine failed to contain it.
		w.sys.cfg.Checker.CorruptLeak(w.now(), w.id, pkt.Seq)
	}
	port := int(pkt.Anno[packet.AnnoOutPort]) % len(w.sys.ports)
	if w.sys.cfg.CaptureTx > 0 && len(w.sys.captured) < w.sys.cfg.CaptureTx {
		//nbalint:allow hotalloc TX capture is a bounded debug facility, off in production runs
		w.sys.captured = append(w.sys.captured, netio.CapturedPacket{
			Time: w.now(),
			Data: append([]byte(nil), pkt.Data()...),
		})
	}
	flen := pkt.OrigLen
	if flen == 0 {
		flen = pkt.Length()
	}
	w.sys.ports[port].Transmit(flen)
	ln.ctr.TxPackets++
	if w.sys.measuring {
		// Wire bytes stop accruing when arrivals stop (mirroring the port
		// meter's Mark..End window) so drain traffic never inflates the
		// tenant's rate; latency keeps recording through the drain because
		// those packets arrived inside the window.
		if w.now() < w.sys.stopTime {
			ln.txWireBytesMeasured += uint64(flen + sysinfo.WireOverheadBytes)
		}
		ln.latencySkip++
		if ln.latencySkip >= w.sys.cfg.LatencySample {
			ln.latencySkip = 0
			lat := w.now() - pkt.Arrival + w.sys.cfg.CostModel.ExternalRTT
			ln.latency.Record(lat)
			if ln.recent != nil {
				ln.recent.Record(lat)
			}
		}
	}
	w.pktPool.Put(pkt)
}

// ReleasePacket implements graph.Env.
//
//nba:hotpath
func (w *worker) ReleasePacket(pkt *packet.Packet) { w.pktPool.Put(pkt) }

// GetBatch implements graph.Env.
//
//nba:hotpath
func (w *worker) GetBatch() (*batch.Batch, error) { return w.batchPool.Get() }

// PutBatch implements graph.Env.
//
//nba:hotpath
func (w *worker) PutBatch(b *batch.Batch) {
	b.Reset()
	w.batchPool.Put(b)
}

// Offload implements graph.Env (paper Figure 7: the framework takes over
// batches whose device annotation selects an accelerator), aggregating into
// the current lane so tenants never share a device task.
//
//nba:hotpath
func (w *worker) Offload(head *graph.Node, chain []*graph.Node, resume int, b *batch.Batch) {
	ln := w.cur
	full, err := ln.agg.Add(w.iterStart, head, chain, resume, b)
	if err != nil {
		// Inconsistent aggregate (mixed resume points): drop the batch,
		// counted as a framework graph drop so conservation still balances.
		w.dropBatch(b, &ln.ctr.GraphDrops)
		return
	}
	if full != nil {
		w.dev.flush(w, full)
	}
}

// Charge implements graph.Env.
//
//nba:hotpath
func (w *worker) Charge(c simtime.Cycles) { w.cycles += c }
