package core

import (
	"fmt"

	"nba/internal/batch"
	"nba/internal/conflang"
	"nba/internal/element"
	"nba/internal/gpu"
	"nba/internal/graph"
	"nba/internal/integrity"
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

// inflightTask tracks one submitted device task on the worker side, so the
// completion path, the completion-timeout path and a device-failure path
// can race without double-processing: whichever fires first sets done, the
// rest become no-ops.
type inflightTask struct {
	ln      *lane // the tenant lane the aggregate belongs to
	pending *offload.Pending
	task    *gpu.Task
	timer   simtime.Timer // completion timeout, zero when disabled
	// dev is the device the task was submitted to (nil for synthetic
	// epoch-rescue tasks, which are never sampled).
	dev *gpu.Device
	// shadow is the sentinel's pre-execution copy of the aggregate, non-nil
	// only when the integrity subsystem sampled this task for re-execution.
	shadow *integrity.Shadow
	// executed records that the device ran the aggregate's kernels, so
	// a CPU fallback never re-runs it (re-encrypting IPsec packets would
	// corrupt them).
	executed bool
	// done records that the aggregate was resumed (normally or via
	// fallback); late completions of a rescued task must not touch the
	// recycled batches.
	done bool
}

// completion carries a finished (or timed-out) device task back to its
// worker's IO loop, where it is processed inside iterate's cycle
// accounting.
type completion struct {
	it       *inflightTask
	timedOut bool
}

// lane is one tenant's slice of a worker: its pipeline replica, its RX
// queues on the local ports, its offload aggregator and CoDel state, and
// every per-tenant counter, so each packet's whole journey is attributed to
// the tenant whose queue delivered it. A single-tenant run has exactly one
// lane and behaves bit-identically to the pre-tenancy worker.
type lane struct {
	tenant int32
	g      *graph.Graph
	pctx   element.ProcContext

	// active is cleared at evict commit: the lane stops being polled,
	// flushed or counted toward retirement, but stays in place (tenant
	// slots are grow-only so tenant-major queue indexing never shifts).
	active bool
	// inflightTasks counts this lane's outstanding device tasks — the
	// lane-granular side of worker.inflight, read by the epoch drain
	// predicate.
	inflightTasks int

	rxqs []*netio.RxQueue
	agg  *offload.Aggregator

	// Overload control (armed only when cfg.Overload is set).
	codel   overload.CoDel
	codelOn bool

	// ctr is the lane's own slice of the accounting table: everything except
	// the RX-queue statistics and the per-node drop counts, which counters()
	// folds in. Its GraphDrops holds only packets the framework dropped
	// outside any element (batch alloc failure, offload misconfiguration).
	ctr                 stats.Counters
	txWireBytesMeasured uint64 // wire bytes transmitted inside the measurement window
	latency             stats.Hist
	recentLat           stats.Hist // since the last ALB update (bounded-latency LB)
	latencySkip         int
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
	// localPorts / localDevs are the socket's port and device index sets.
	localPorts []int
	localDevs  []int

	lanes []*lane
	// tasks tracks the outstanding submitted device tasks (bounded by
	// MaxInflightTasks), so an epoch force-rescue can route them through the
	// completion-timeout path without waiting for the device.
	tasks []*inflightTask
	// cur is the lane whose graph is executing; the Env callbacks attribute
	// transmissions, drops and offloads to it. Set before any pipeline entry
	// (injection, flush, resume).
	cur *lane
	// wrr orders lanes within each iteration by tenant share, so RX-budget
	// exhaustion rotates fairly instead of starving high-index tenants.
	wrr *sched.WRR

	pktPool   *netio.PacketPool
	batchPool *batch.Pool
	// burst receives each RX poll. It is a field, not a local of iterate:
	// Poll hands it to the generator's FillBurst, an interface method, which
	// would move a stack array to the heap on every iteration.
	burst []*packet.Packet

	// sentinel is the integrity re-execution sampler, non-nil only when
	// cfg.Integrity is set. Its RNG stream is seeded per worker so sampling
	// decisions are deterministic and independent of other workers.
	sentinel *integrity.Sentinel

	completions  *mempool.Ring[completion]
	sockDev      *gpu.Device // first local device (admission signal), may be nil
	inflight     int         // outstanding device tasks
	inflightPkts int
	inflightHWM  int // high watermark of outstanding device tasks

	// cycles accumulates cost within the current IO-loop iteration.
	cycles    simtime.Cycles
	iterStart simtime.Time
	stopped   bool

	// iterateFn is the method value w.iterate, bound once at construction so
	// rescheduling the IO loop every iteration does not allocate a closure.
	iterateFn func()
}

// newWorker builds a lane-less worker; System.installTenant adds one lane per
// tenant.
func newWorker(s *System, id, socket, local int, localPorts, localDevs []int) *worker {
	w := &worker{
		sys:        s,
		id:         id,
		socket:     socket,
		local:      local,
		localPorts: localPorts,
		localDevs:  localDevs,
	}
	w.wrr = sched.NewWRR(nil) // installTenant re-splits it as lanes arrive
	if len(localDevs) > 0 {
		w.sockDev = s.devices[localDevs[0]]
	}
	w.pktPool = mempool.NewOver(fmt.Sprintf("pkt.w%d", id), s.zone.workerPkts(id), nil)
	w.batchPool = mempool.NewOver(fmt.Sprintf("batch.w%d", id), s.zone.workerBatches(id), nil)
	w.burst = make([]*packet.Packet, 0, s.cfg.IOBatchSize)
	w.completions = mempool.NewRing[completion](256)
	if s.cfg.Integrity != nil {
		w.sentinel = integrity.NewSentinel(s.cfg.Integrity, s.newSentinelRand(id), &s.zone.shadows[id])
	}
	w.iterateFn = w.iterate
	return w
}

// buildLane constructs tenant t's lane on this worker from the tenant's
// parsed graph. The tenant's NodeLocal rows and tenant-major RX queues must
// already be in place at index t.
func (w *worker) buildLane(t int, parsed *conflang.Config) (*lane, error) {
	s := w.sys
	ln := &lane{tenant: int32(t), active: true}
	cctx := &element.ConfigContext{
		Socket:     w.socket,
		Worker:     w.id,
		NodeLocal:  s.nodeLocals[w.socket][t],
		NumPorts:   len(s.cfg.Topology.Ports),
		NumDevices: len(w.localDevs),
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
		CostScale: 1,
	}
	// Memory-bandwidth contention: mild per-extra-worker inflation
	// (paper Figure 11a's per-core droop).
	ln.pctx.CostScale = 1 + s.cfg.CostModel.MemContentionPerWorker*float64(s.cfg.WorkersPerSocket-1)
	if s.cfg.ForceRemoteMemory {
		ln.pctx.CostScale *= s.cfg.CostModel.NUMAPenalty
	}
	// Tenant-major queue carve: tenant t's queue for this worker is
	// index t*WorkersPerSocket+local on every local port.
	for _, pid := range w.localPorts {
		ln.rxqs = append(ln.rxqs, s.ports[pid].Rx[t*s.cfg.WorkersPerSocket+w.local])
	}
	ln.agg = offload.NewAggregator(s.cfg.CostModel)
	if oc := s.cfg.Overload; oc != nil && oc.CoDelTarget > 0 {
		ln.codel = overload.CoDel{Target: oc.CoDelTarget, Interval: oc.CoDelInterval}
		ln.codelOn = true
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

// iterate is one run-to-completion IO loop pass: drain offload completions,
// poll each lane's RX queues in share-weighted order, run batches through
// that lane's pipeline, flush aged offload aggregates, then reschedule after
// the consumed virtual time.
//
//nba:hotpath
func (w *worker) iterate() {
	if w.stopped {
		return
	}
	cm := w.sys.cfg.CostModel
	w.iterStart = w.sys.eng.Now()
	w.cycles = 0
	for _, ln := range w.lanes {
		ln.pctx.Now = w.iterStart
	}
	didWork := false

	// 1. Offload completions.
	w.cycles += cm.CompletionPoll
	for {
		c, ok := w.completions.Pop()
		if !ok {
			break
		}
		didWork = true
		w.handleCompletion(c)
	}

	// 2. RX polling, unless backpressured by outstanding device tasks.
	// Iterations are bounded in virtual time so that very expensive
	// per-packet work (e.g. IDS over MTU frames) still yields a responsive
	// IO loop rather than multi-millisecond quanta. Lanes are visited in
	// the WRR round's order, so when the budget cuts a round short, the
	// front position — and with it the loss — rotates by tenant share.
	iterBudget := simtime.TimeToCycles(cm.MaxIterTime, w.sys.cfg.Topology.CoreFreqHz)
	backpressured := w.inflight >= w.sys.cfg.MaxInflightTasks
	if !backpressured && w.sockDev != nil && cm.MaxDeviceBacklog > 0 &&
		w.inflight > 0 && w.sockDev.Backlog() > cm.MaxDeviceBacklog {
		backpressured = true
	}
	// Backpressure propagation: a saturated bounded device queue throttles
	// RX polling, so overflow accrues in the NIC ring's head-drop accounting
	// instead of hidden interior queues.
	if !backpressured && w.sockDev != nil && w.sockDev.Saturated() {
		backpressured = true
	}
	if !backpressured {
	polling:
		for _, t := range w.wrr.Round() {
			ln := w.lanes[t]
			if !ln.active {
				continue
			}
			w.cur = ln
			for _, q := range ln.rxqs {
				if iterBudget > 0 && w.cycles >= iterBudget {
					break polling
				}
				w.cycles += cm.RxBurstFixed
				pkts := q.Poll(w.iterStart, w.sys.cfg.IOBatchSize, w.pktPool, w.burst)
				if len(pkts) == 0 {
					continue
				}
				didWork = true
				w.cycles += cm.RxPerPacket * simtime.Cycles(len(pkts))
				if ln.codelOn {
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
		if !ln.active {
			continue
		}
		w.cur = ln
		for _, p := range ln.agg.Expired(w.iterStart) {
			w.flush(p)
		}
		pending += ln.agg.PendingCount()
	}
	if !didWork && w.inflight == 0 && pending > 0 {
		for _, ln := range w.lanes {
			if !ln.active {
				continue
			}
			w.cur = ln
			for _, p := range ln.agg.TakeAll() {
				w.flush(p)
			}
		}
		didWork = true
	}

	// 4. Reschedule.
	elapsed := simtime.CyclesToTime(w.cycles, w.sys.cfg.Topology.CoreFreqHz)
	next := elapsed
	if !didWork || elapsed == 0 {
		next = cm.IdlePoll
	}
	if w.done() {
		w.stopped = true
		return
	}
	w.sys.eng.After(next, w.iterateFn)
}

// laneDrained is the drain predicate for one lane, shared by worker
// retirement and the evict epoch: no outstanding device tasks, no pending
// aggregates, and every live RX queue empty.
func (w *worker) laneDrained(t int, now simtime.Time) bool {
	ln := w.lanes[t]
	if ln.inflightTasks > 0 || ln.agg.PendingCount() > 0 {
		return false
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
	if now < w.sys.stopTime || w.inflight > 0 || w.completions.Len() > 0 {
		return false
	}
	for t, ln := range w.lanes {
		// An evicted lane was drained by its epoch; stranded backlog on its
		// zero-rated queues is finalized into drop accounting at report time
		// and must not keep the worker alive.
		if ln.active && !w.laneDrained(t, now) {
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

// flush submits a pending aggregate of the current lane as one device task.
func (w *worker) flush(p *offload.Pending) {
	cm := w.sys.cfg.CostModel
	ln := w.cur
	w.cycles += cm.OffloadEnqueue + cm.OffloadPrePerPacket*simtime.Cycles(p.NPkts)
	dev, err := w.sys.deviceFor(w.socket, p.Device)
	if err == errNoPluggedDevice {
		// Every local device is hot-unplugged: the aggregate is rescued on
		// the CPU (the hitless path), not dropped — unplug is a planned
		// reconfiguration, not a misconfiguration. The device never saw the
		// task, so only the rescue is charged.
		w.rescueOnCPU(ln, p, 0, rescueUnplugged, 0, false)
		return
	}
	if err != nil {
		// No such device: treat as a misconfiguration drop of the whole
		// aggregate (exercised by failure-injection tests).
		for _, b := range p.Batches {
			w.dropBatch(b, &ln.ctr.GraphDrops)
		}
		return
	}
	w.inflight++
	w.inflightPkts += p.NPkts
	ln.ctr.OffloadedPackets += uint64(p.NPkts)
	task := &gpu.Task{
		Worker:     w.id,
		NPkts:      p.NPkts,
		H2DBytes:   p.H2DBytes,
		D2HBytes:   p.D2HBytes,
		KernelTime: p.KernelTime(cm),
		Kernels:    len(p.Chain),
	}
	it := &inflightTask{ln: ln, pending: p, task: task, dev: dev}
	task.Execute = func() {
		// Device-side functional computation (timed by the kernel model).
		// Guarded so a hung task rescheduled after recovery cannot run it a
		// second time, and a timeout-rescued task cannot touch the recycled
		// batches.
		if it.done || it.executed {
			return
		}
		it.executed = true
		for _, node := range p.Chain {
			for _, b := range p.Batches {
				node.Offloadable().Kernel(&it.ln.pctx, b)
			}
		}
		if dev.Corrupting() && dev.CorruptCoin() {
			// Silent data corruption (DeviceCorrupt fault window): flip one
			// byte per live frame using the event's seeded pattern stream.
			// The device reports success and the results stay plausible —
			// only sentinel re-execution (or the chaos leak oracle) can tell.
			for _, b := range p.Batches {
				b.ForEachLive(func(i int, pkt *packet.Packet) {
					if n := pkt.Length(); n > 0 {
						off, pat := dev.CorruptByte(n)
						pkt.Data()[off] ^= pat
						pkt.Tainted = true
					}
				})
			}
		}
	}
	task.Complete = func(finish simtime.Time, t *gpu.Task) {
		w.pushCompletion(it, false)
	}
	if tt := w.sys.cfg.TaskTimeout; tt > 0 {
		// The timeout only enqueues a rescue completion: the fallback runs
		// inside the next iterate, where cycle accounting lives.
		it.timer = w.sys.eng.After(tt, func() { w.pushCompletion(it, true) })
	}
	if !dev.Submit(task) {
		// Admission control refused the task (bounded queue full). Undo the
		// submission accounting; below LevelShed the aggregate is rescued on
		// the CPU right here, at LevelShed it is dropped and counted as shed.
		it.timer.Cancel()
		it.done = true
		w.inflight--
		w.inflightPkts -= p.NPkts
		ln.ctr.OffloadedPackets -= uint64(p.NPkts)
		ln.ctr.RejectedTasks++
		lvl := w.sys.overloadLevel(w.socket, ln.tenant)
		if lvl >= overload.LevelShed {
			w.sys.cfg.Tracer.EmitT(w.now(), trace.KindOverloadShed, int32(w.id), ln.tenant, "admission",
				int64(p.NPkts), 1, int64(dev.Queued()), int64(lvl))
			for _, b := range p.Batches {
				w.dropBatch(b, &ln.ctr.ShedPackets)
			}
		} else {
			w.rescueOnCPU(ln, p, 0, rescueRejected, int64(lvl), false)
		}
		return
	}
	ln.inflightTasks++
	w.tasks = append(w.tasks, it)
	if w.inflight > w.inflightHWM {
		w.inflightHWM = w.inflight
	}
	if w.sentinel.Sample() {
		// Sentinel sampling draws one coin per *accepted* task (refused
		// submissions never reach the device, so there is nothing to
		// cross-check) and snapshots the aggregate's pre-execution state.
		it.shadow = w.sentinel.Snapshot(p.Batches)
	}
}

// pushCompletion hands a finished (or, with timedOut, a to-be-rescued) task
// to the worker's IO loop; the postprocessing runs inside the next iterate,
// where cycle accounting lives. A task already resumed through another path
// is left alone.
func (w *worker) pushCompletion(it *inflightTask, timedOut bool) {
	if it.done {
		return
	}
	if !w.completions.Push(completion{it: it, timedOut: timedOut}) {
		panic(fmt.Sprintf("core: worker %d completion ring overflow", w.id))
	}
}

// rescueLane force-drains one lane at the epoch grace deadline: every
// outstanding submitted task is routed through the completion-timeout path,
// and every pending (unsubmitted) aggregate is wrapped in a synthetic task
// and routed the same way, so the whole rescue flows through the one
// CPU-fallback path with its normal accounting. Returns the number of tasks
// and aggregates rescued; the completions drain on the worker's next
// iteration.
func (w *worker) rescueLane(ln *lane) int {
	rescued := 0
	for _, it := range w.tasks {
		if it.ln != ln || it.done {
			continue
		}
		rescued++
		w.pushCompletion(it, true)
	}
	for _, p := range ln.agg.TakeAll() {
		rescued++
		// Synthetic in-flight accounting so handleCompletion's decrements
		// balance: the aggregate was never submitted, but it drains through
		// the same path as a timed-out task.
		it := &inflightTask{ln: ln, pending: p, task: &gpu.Task{NPkts: p.NPkts}}
		w.inflight++
		w.inflightPkts += p.NPkts
		ln.inflightTasks++
		w.pushCompletion(it, true)
	}
	return rescued
}

// dropBatch is the one framework drop path (offload misconfiguration,
// admission shed at LevelShed, quarantine): every live packet of b returns to
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
		if tr := w.sys.cfg.Tracer; tr != nil {
			tr.EmitT(now, trace.KindOverloadShed, int32(w.id), ln.tenant, "codel",
				shed, 0, int64(maxSojourn), int64(w.sys.overloadLevel(w.socket, ln.tenant)))
		}
	}
	return kept
}

// handleCompletion postprocesses a finished, failed or timed-out device
// task and resumes the batches in its lane's pipeline (after a CPU fallback
// when the device never ran them).
//
//nba:hotpath
func (w *worker) handleCompletion(c completion) {
	it := c.it
	if it.done {
		return // duplicate: the task was already resumed via another path
	}
	it.done = true
	it.timer.Cancel()
	p := it.pending
	w.cur = it.ln
	w.inflight--
	w.inflightPkts -= p.NPkts
	it.ln.inflightTasks--
	// Drop the task from the tracked set (swap-delete; the set is bounded
	// by MaxInflightTasks). Synthetic rescue tasks are never in it.
	for i, t := range w.tasks {
		if t == it {
			w.tasks[i] = w.tasks[len(w.tasks)-1]
			w.tasks[len(w.tasks)-1] = nil
			w.tasks = w.tasks[:len(w.tasks)-1]
			break
		}
	}
	if it.shadow != nil {
		sh := it.shadow
		it.shadow = nil
		if !it.executed {
			// The device never ran the computation (failed/hung rescue):
			// there is nothing to cross-check, and the CPU fallback below
			// recomputes from scratch anyway.
			w.sentinel.Release(sh)
		} else if !w.verifyAggregate(it, sh) {
			w.quarantineAggregate(it)
			return
		}
	}
	switch {
	case c.timedOut:
		it.ln.ctr.TimedOutTasks++
		w.rescueOnCPU(it.ln, p, it.task.ID, rescueTimedOut, 0, it.executed)
	case it.task.Failed:
		it.ln.ctr.FailedTasks++
		w.rescueOnCPU(it.ln, p, it.task.ID, rescueFailed, 0, it.executed)
	default:
		w.resumeAggregate(p)
	}
}

// verifyAggregate re-executes a sampled aggregate's kernels on the CPU over
// the sentinel's pre-execution shadow copy and compares result digests
// against what the device produced. The re-execution is charged at the honest
// CPU element cost, so sentinel sampling carries a real throughput price. The
// observation (and any escalation it triggers) is reported to the system's
// per-device corruption tracker.
func (w *worker) verifyAggregate(it *inflightTask, sh *integrity.Shadow) bool {
	pctx := &it.ln.pctx
	var cycles simtime.Cycles
	match := w.sentinel.Verify(sh, func(b *batch.Batch) {
		for _, node := range it.pending.Chain {
			cycles += node.RunOnCPU(pctx, b)
		}
	})
	w.cycles += pctx.Scaled(cycles)
	w.sys.noteIntegrity(w, it, match)
	return match
}

// quarantineAggregate discards every live packet of an aggregate whose
// sentinel re-execution disagreed with the device's results: nothing from it
// may reach TX or the resumed pipeline. The packets land in a dedicated
// counted drop class so end-to-end conservation still balances.
func (w *worker) quarantineAggregate(it *inflightTask) {
	ln := it.ln
	before := ln.ctr.QuarantinedPackets
	for _, b := range it.pending.Batches {
		w.dropBatch(b, &ln.ctr.QuarantinedPackets)
	}
	w.sys.cfg.Tracer.EmitT(w.now(), trace.KindIntegrityQuarantine, int32(w.id), ln.tenant, it.dev.Name,
		int64(it.task.ID), int64(ln.ctr.QuarantinedPackets-before), 0, int64(it.dev.TraceActor))
}

// resumeAggregate postprocesses a completed aggregate and resumes its
// batches in the current lane's pipeline (shared by the normal completion,
// fallback and admission-rescue paths).
//
//nba:hotpath
func (w *worker) resumeAggregate(p *offload.Pending) {
	cm := w.sys.cfg.CostModel
	ln := w.cur
	w.cycles += cm.OffloadPostPerPacket * simtime.Cycles(p.NPkts)
	head := p.Head
	for _, b := range p.Batches {
		// Release packets the kernels marked for drop, then
		// clear results for the resumed pipeline segment.
		for i := 0; i < b.Count(); i++ {
			if b.IsMasked(i) {
				continue
			}
			if b.Result(i) == batch.ResultDrop {
				w.pktPool.Put(b.Packet(i))
				b.Mask(i)
				head.Dropped++ //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
				continue
			}
			b.SetResult(i, 0)
		}
		ln.g.RunFrom(w, &ln.pctx, p.Resume, b)
	}
}

// Reason codes carried by KindFallback trace events.
const (
	rescueFailed    = 0 // the device completed the task as failed
	rescueTimedOut  = 1 // the completion timeout (or an epoch force-rescue) fired
	rescueRejected  = 2 // admission control refused the submission
	rescueUnplugged = 3 // the socket has no plugged device left
)

// rescueOnCPU is the one CPU-rescue path: count the rescue, emit the
// fallback event (taskID 0 when the device never saw a task; detail carries
// the governor level for rejections), run the chain's kernels on the CPU,
// and resume the aggregate in its lane's pipeline.
// If the device already ran the computation (it failed after the kernel, or a
// hung task's kernel had finished) the results are valid — executed skips
// the re-run, which for IPsec would corrupt the packets — and only the rescue
// is counted.
func (w *worker) rescueOnCPU(ln *lane, p *offload.Pending, taskID uint64, reason, detail int64, executed bool) {
	w.cur = ln
	ln.ctr.FallbackPackets += uint64(p.NPkts)
	w.sys.cfg.Tracer.EmitT(w.now(), trace.KindFallback, int32(w.id), ln.tenant, "fallback",
		int64(taskID), int64(p.NPkts), reason, detail)
	if !executed {
		w.execChainOnCPU(p)
	}
	w.resumeAggregate(p)
}

// execChainOnCPU runs an aggregate's kernels on the CPU, charged at the
// honest CPU per-packet element cost.
//
//nba:hotpath
func (w *worker) execChainOnCPU(p *offload.Pending) {
	pctx := &w.cur.pctx
	for _, node := range p.Chain {
		var cycles simtime.Cycles
		for _, b := range p.Batches {
			cycles += node.RunOnCPU(pctx, b)
		}
		w.cycles += pctx.Scaled(cycles)
	}
}

// --- graph.Env implementation ---

// Transmit implements graph.Env, attributing the transmission to the
// current lane's tenant.
//
//nba:hotpath
func (w *worker) Transmit(pkt *packet.Packet) {
	ln := w.cur
	if pkt.Tainted && w.sentinel != nil {
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
			if w.sys.cfg.ALBLatencyBound > 0 {
				ln.recentLat.Record(lat)
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
		// Inconsistent aggregate (mixed devices): drop the batch, counted as
		// a framework graph drop so conservation still balances.
		w.dropBatch(b, &ln.ctr.GraphDrops)
		return
	}
	if full != nil {
		w.flush(full)
	}
}

// Charge implements graph.Env.
//
//nba:hotpath
func (w *worker) Charge(c simtime.Cycles) { w.cycles += c }
