package core

import (
	"fmt"
	"slices"

	"nba/internal/batch"
	"nba/internal/gpu"
	"nba/internal/integrity"
	"nba/internal/mempool"
	"nba/internal/offload"
	"nba/internal/packet"
	"nba/internal/simtime"
	"nba/internal/trace"
)

// devicePath is one worker's side of the offload path (paper §3.3,
// DESIGN.md §3): it hands the worker's aggregates to the socket's device
// as tasks, keeps the one record of what is in flight, and resumes each
// aggregate in its lane's pipeline when the device completes it, or rescues
// it on the CPU when the device fails it (the stall watchdog fails a hung
// device's whole queue). The worker holds it by value; the methods that
// need the worker's clock, pools or lane graphs take the worker as an
// argument.
type devicePath struct {
	// device is the socket's device, nil when the socket has none.
	device *gpu.Device
	// tasks is every task the worker has submitted, until its completion
	// is handled. The cost model's task cap bounds its length only for RX
	// polling: flushes of expired aggregates and flushes during a resume
	// still submit past it. Each task holds at least one batch, so the
	// worker's batch pool is what bounds it.
	tasks []*inflightTask
	// completions carries finished and failed tasks to the worker's next
	// pass, where cycle accounting lives.
	completions *mempool.Ring[*inflightTask]
	// sentinel is the integrity re-execution sampler, non-nil only when
	// cfg.Integrity is set. Its RNG stream is seeded per worker so sampling
	// decisions are deterministic and independent of other workers.
	sentinel *integrity.Sentinel
}

// inflightTask tracks one device task on the worker side, from submit to
// the handling of its one completion (normal or failed).
type inflightTask struct {
	ln      *lane // the tenant lane the aggregate belongs to
	pending *offload.Pending
	task    gpu.Task // what the device was handed
	// shadow is the sentinel's pre-execution copy of the aggregate, non-nil
	// only when the integrity subsystem sampled this task for re-execution.
	shadow *integrity.Shadow
	// seq is the task's handle on the System's device executor, which runs
	// the chain's kernels over the aggregate from submit on.
	seq uint64
	// executed records that the device reached the task's kernel completion
	// in virtual time. The executor computed the results of every submitted
	// task whatever the device did, and a rescue never runs them again
	// (re-encrypting IPsec packets would corrupt them): executed decides
	// only whether the rescue charges the chain's CPU cycles.
	executed bool
}

// newDevicePath builds worker id's device path on the socket's device (nil
// when the socket has none).
func newDevicePath(s *System, id int, dev *gpu.Device) devicePath {
	dp := devicePath{device: dev, completions: mempool.NewRing[*inflightTask](256)}
	if s.cfg.Integrity != nil {
		dp.sentinel = integrity.NewSentinel(s.cfg.Integrity, s.newSentinelRand(id), &s.zone.shadows[id])
	}
	return dp
}

// watchdog is the hang watchdog, run at the start of every pass: the
// socket's device with queued work and no finish for limit hands its whole
// queue back as failed tasks, which the submitting workers rescue on the
// CPU.
func (dp *devicePath) watchdog(limit simtime.Time) {
	if limit > 0 && dp.device != nil && dp.device.Stalled(limit) {
		dp.device.AbortAll()
	}
}

// backlogged reports whether d's backlog is over MaxDeviceBacklog: the
// device's term of the admission limit, which the overload governor reads
// as device saturation.
func backlogged(s *System, d *gpu.Device) bool {
	bound := s.cfg.CostModel.MaxDeviceBacklog
	return d != nil && bound > 0 && d.Backlog() > bound
}

// backpressured is the admission predicate: whether outstanding device
// tasks hold RX polling back, by the task cap or by the device backlog
// bound while the worker has a task out. The overflow then accrues in the
// NIC ring's head-drop accounting instead of hidden interior queues.
// Either way the worker has a task out, so its completion can lift it.
//
//nba:hotpath
func (dp *devicePath) backpressured(s *System) bool {
	n := len(dp.tasks)
	return n >= s.cfg.CostModel.MaxInflightTasks || n > 0 && backlogged(s, dp.device)
}

// deadline returns the earliest instant at which the device side of a
// parked worker's pass could differ without an event: the backlog decaying
// to MaxDeviceBacklog, where that bound alone holds the worker back (the
// task cap lifts by an event), or the device's stall watchdog firing.
func (dp *devicePath) deadline(s *System, now simtime.Time) (at simtime.Time, ok bool) {
	cm := s.cfg.CostModel
	if n := len(dp.tasks); n > 0 && n < cm.MaxInflightTasks && backlogged(s, dp.device) {
		at, ok = now+dp.device.Backlog()-cm.MaxDeviceBacklog, true
	}
	if limit := s.cfg.TaskTimeout; limit > 0 && dp.device != nil {
		if t, queued := dp.device.StallDeadline(limit); queued && (!ok || t < at) {
			at, ok = t, true
		}
	}
	return at, ok
}

// flush submits a pending aggregate of the worker's current lane as one
// device task.
func (dp *devicePath) flush(w *worker, p *offload.Pending) {
	cm := w.sys.cfg.CostModel
	ln := w.cur
	w.cycles += cm.OffloadEnqueue + cm.OffloadPrePerPacket*simtime.Cycles(p.NPkts)
	dev := dp.device
	if dev == nil {
		// The socket has no device: a misconfiguration drop of the whole
		// aggregate. LoadBalance refuses to offload on such a socket, so
		// only a graph that stamps the annotation itself gets here.
		for _, b := range p.Batches {
			w.dropBatch(b, &ln.ctr.GraphDrops)
		}
		return
	}
	if !w.sys.epochs.plugged(int(dev.TraceActor)) {
		// The device is hot-unplugged: the aggregate is rescued on the CPU
		// (the hitless path), not dropped — unplug is a planned
		// reconfiguration, not a misconfiguration. The device never saw the
		// task, so only the rescue is charged.
		dp.rescueOnCPU(w, ln, p, 0, rescueUnplugged, false)
		return
	}
	ln.ctr.OffloadedPackets += uint64(p.NPkts)
	it := &inflightTask{ln: ln, pending: p, task: gpu.Task{
		Worker:     w.id,
		NPkts:      p.NPkts,
		H2DBytes:   p.H2DBytes,
		D2HBytes:   p.D2HBytes,
		KernelTime: p.KernelTime(cm),
		Kernels:    len(p.Chain),
	}}
	it.task.Execute = func() {
		// The device reached kernel completion: the results the executor
		// computed are now the device's. Guarded so a hung task rescheduled
		// after recovery is not counted twice. The device cancels this
		// callback when it fails or aborts the task, so it never runs after
		// the completion.
		if it.executed {
			return
		}
		it.executed = true
		if dev.Corrupting() {
			// Silent data corruption (DeviceCorrupt fault window): flip one
			// byte per live frame using the event's seeded pattern stream,
			// over the executor's finished results. The device reports
			// success and the results stay plausible — only sentinel
			// re-execution (or the chaos leak oracle) can tell.
			w.sys.exec.Join(it.seq)
			if dev.CorruptCoin() {
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
	}
	it.task.Complete = func(simtime.Time, *gpu.Task) { w.dev.pushCompletion(w, it) }
	dp.tasks = append(dp.tasks, it)
	dev.Submit(&it.task)
	if dp.sentinel.Sample() {
		// Sentinel sampling draws one coin per submitted task (a rescue of
		// an aggregate the device never saw has nothing to cross-check) and
		// snapshots the aggregate's pre-execution state.
		it.shadow = dp.sentinel.Snapshot(p.Batches)
	}
	// The device's functional work starts now, on the executor: the
	// snapshot above was the last event-loop read of the aggregate before
	// the task is joined.
	it.seq = w.sys.exec.Submit(it)
}

// RunJob implements par.Job: the chain's kernels over the aggregate, on the
// System's device executor. It writes only the aggregate's batches and the
// kernels' device scratch (element.Offloadable's contract), which nothing on
// the event loop reads before it joins the task.
func (it *inflightTask) RunJob() {
	for _, node := range it.pending.Chain {
		for _, b := range it.pending.Batches {
			node.Offloadable().Kernel(&it.ln.kctx, b)
		}
	}
}

// pushCompletion hands a finished or failed task to the worker's IO loop;
// the postprocessing runs inside the next pass, where cycle accounting
// lives. The device completes each task once: a normal completion leaves
// its queue, and a failure takes the task out of it.
func (dp *devicePath) pushCompletion(w *worker, it *inflightTask) {
	if !dp.completions.Push(it) {
		panic(fmt.Sprintf("core: worker %d completion ring overflow", w.id))
	}
	w.unpark()
}

// drain handles every completion pushed since the worker's last pass and
// reports whether there was one.
//
//nba:hotpath
func (dp *devicePath) drain(w *worker) (did bool) {
	for it, ok := dp.completions.Pop(); ok; it, ok = dp.completions.Pop() {
		did = true
		dp.handleCompletion(w, it)
	}
	return did
}

// handleCompletion postprocesses a finished or failed device task and
// resumes the batches in its lane's pipeline (after a CPU fallback when the
// device failed it).
//
//nba:hotpath
func (dp *devicePath) handleCompletion(w *worker, it *inflightTask) {
	// Verify, quarantine, rescue and resume all read the aggregate: wait for
	// the executor's results first.
	w.sys.exec.Join(it.seq)
	p := it.pending
	w.cur = it.ln
	dp.drop(it)
	if sh := it.shadow; sh != nil {
		it.shadow = nil
		if !it.executed {
			// The device never reached kernel completion (failed/hung
			// rescue): it delivered no result to cross-check.
			dp.sentinel.Release(sh)
		} else if !dp.verifyAggregate(w, it, sh) {
			dp.quarantineAggregate(w, it)
			return
		}
	}
	if it.task.Failed {
		it.ln.ctr.FailedTasks++
		dp.rescueOnCPU(w, it.ln, p, it.task.ID, rescueFailed, it.executed)
		return
	}
	dp.resumeAggregate(w, p)
}

// drop removes a handled task from the list by a swap-delete that clears
// the vacated slot. The list is short: at the task cap the worker polls
// no RX, so only packets it already holds add tasks.
func (dp *devicePath) drop(it *inflightTask) {
	i, last := slices.Index(dp.tasks, it), len(dp.tasks)-1
	dp.tasks[i], dp.tasks[last] = dp.tasks[last], nil
	dp.tasks = dp.tasks[:last]
}

// verifyAggregate re-executes a sampled aggregate's kernels on the CPU over
// the sentinel's pre-execution shadow copy and compares result digests
// against what the device produced. The re-execution is charged at the honest
// CPU element cost, so sentinel sampling carries a real throughput price. The
// observation (and any escalation it triggers) is reported to the system's
// per-device corruption tracker.
func (dp *devicePath) verifyAggregate(w *worker, it *inflightTask, sh *integrity.Shadow) bool {
	pctx := &it.ln.pctx
	var cycles simtime.Cycles
	match := dp.sentinel.Verify(sh, func(b *batch.Batch) {
		for _, node := range it.pending.Chain {
			cycles += node.RunOnCPU(pctx, b)
		}
	})
	w.cycles += pctx.Scaled(cycles)
	w.sys.escalation.note(w.sys, w, it, !match)
	return match
}

// quarantineAggregate discards every live packet of an aggregate whose
// sentinel re-execution disagreed with the device's results: nothing from it
// may reach TX or the resumed pipeline. The packets land in a dedicated
// counted drop class so end-to-end conservation still balances.
func (dp *devicePath) quarantineAggregate(w *worker, it *inflightTask) {
	ln := it.ln
	before := ln.ctr.QuarantinedPackets
	for _, b := range it.pending.Batches {
		w.dropBatch(b, &ln.ctr.QuarantinedPackets)
	}
	w.sys.cfg.Tracer.EmitT(w.now(), trace.KindIntegrityQuarantine, int32(w.id), ln.tenant, dp.device.Name,
		int64(it.task.ID), int64(ln.ctr.QuarantinedPackets-before), 0, int64(dp.device.TraceActor))
}

// resumeAggregate postprocesses a completed aggregate and resumes its
// batches in the worker's current lane's pipeline (shared by the normal
// completion and CPU-rescue paths).
//
//nba:hotpath
func (dp *devicePath) resumeAggregate(w *worker, p *offload.Pending) {
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

// Reason codes carried by KindFallback trace events. 1 and 2 are retired,
// not reused, so older recordings keep their meaning.
const (
	rescueFailed    = 0 // the device completed the task as failed
	rescueUnplugged = 3 // the socket's device is unplugged
)

// rescueOnCPU is the one CPU-rescue path: count the rescue, emit the
// fallback event (taskID 0 when the device never saw a task), charge the
// chain on the CPU, and resume the aggregate in its lane's pipeline.
// The kernels run here only for an aggregate the device never saw (an
// unplugged device's): the device executor got every submitted task, whose
// results are already computed, and running them again would, for IPsec,
// corrupt the packets. If the device reached kernel completion (executed:
// it failed after the kernel, or a hung task's kernel had finished) the
// CPU is not charged either, and only the rescue is counted.
func (dp *devicePath) rescueOnCPU(w *worker, ln *lane, p *offload.Pending, taskID uint64, reason int64, executed bool) {
	w.cur = ln
	ln.ctr.FallbackPackets += uint64(p.NPkts)
	w.sys.cfg.Tracer.EmitT(w.now(), trace.KindFallback, int32(w.id), ln.tenant, "fallback",
		int64(taskID), int64(p.NPkts), reason, 0)
	if !executed {
		dp.execChainOnCPU(w, p, taskID == 0)
	}
	dp.resumeAggregate(w, p)
}

// execChainOnCPU charges an aggregate's chain at the honest CPU per-packet
// element cost and, with run, also runs its kernels there.
//
//nba:hotpath
func (dp *devicePath) execChainOnCPU(w *worker, p *offload.Pending, run bool) {
	pctx := &w.cur.pctx
	for _, node := range p.Chain {
		var cycles simtime.Cycles
		for _, b := range p.Batches {
			if run {
				cycles += node.RunOnCPU(pctx, b)
			} else {
				cycles += node.CPUCost(b)
			}
		}
		w.cycles += pctx.Scaled(cycles)
	}
}
