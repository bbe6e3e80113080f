// Package gpu models the accelerator device and its device thread: command
// queues, host<->device copies, kernel launches and completion callbacks
// (paper §3.3, Figure 7).
//
// The device is a three-stage pipeline on the virtual clock:
//
//	host stage   — the device thread's per-task CPU work (ring dequeue,
//	               CUDA-runtime locking; grows with the number of workers,
//	               which is what bends GPU-only scaling, paper §4.3);
//	copy stage   — a single half-duplex copy engine moving H2D bytes before
//	               the kernel and D2H bytes after it (the paper's GTX 680
//	               has one copy engine, so H2D and D2H transfers serialise);
//	kernel stage — the compute engine, busy for the task's kernel time.
//
// Stages overlap across tasks like CUDA streams do: while task N computes,
// task N+1 can copy. The copy engine keeps a free-gap list, so a transfer
// that becomes ready early (the next task's H2D) can slot into idle time
// left before an already-reserved later transfer (an earlier task's D2H).
// Throughput is set by the slowest stage; latency is the sum of stage times
// plus queueing. The device only times tasks: the element's device-side
// computation really runs on the host, on the submitting System's device
// executor (core), from submit on. A task's Execute callback marks the
// moment that computation counts as done in virtual time.
//
// The device also has a health state driven by internal/fault: Fail voids
// every reservation and completes tasks immediately with Task.Failed set
// (workers re-execute them on the CPU); Hang freezes completion until
// Recover; SetSlowdown scales kernel and copy times for subsequently
// scheduled tasks. A device is judged hung by its lack of progress, not by
// any task's age: Stalled reports queued work with no task finished for a
// limit, and the workers then hand the whole queue back with AbortAll. A
// slowed or copy-saturated device that still finishes tasks is never
// stalled, however long its queue.
package gpu

import (
	"fmt"

	"nba/internal/invariant"
	"nba/internal/rng"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

// Task is one aggregated offload task.
type Task struct {
	ID       uint64
	Worker   int // submitting worker (for completion routing)
	NPkts    int
	H2DBytes int
	D2HBytes int
	// KernelTime is the unscaled total kernel execution time (the offload
	// engine sums the chain's kernel costs).
	KernelTime simtime.Time
	// Kernels is the number of kernel launches in the chain (each pays the
	// device's LaunchExtra).
	Kernels int

	// Execute is called at kernel completion time: the device has done the
	// task's computation in virtual time. A hang that parks the task after
	// its kernel finished and a Recover that schedules it again call it a
	// second time, so it must be idempotent.
	Execute func()
	// Complete is invoked when the task fully finishes (after D2H), or
	// immediately with Failed set when the device fails.
	Complete func(finish simtime.Time, t *Task)
	// Failed is set when the task completed because the device failed
	// rather than because it ran. Execute has not necessarily run.
	Failed bool

	// Timing breakdown, filled by the device.
	Submitted  simtime.Time
	HostDone   simtime.Time
	H2DDone    simtime.Time
	KernelDone simtime.Time
	Finish     simtime.Time
}

// Stats aggregates device activity. Tasks/Packets and the byte counters
// account everything offered to the device at submit time; the busy times
// account scheduled engine occupancy, and are refunded in full for tasks a
// fault aborts before completion.
type Stats struct {
	Tasks        uint64
	Packets      uint64
	H2DBytes     uint64
	D2HBytes     uint64
	FailedTasks  uint64
	KernelBusy   simtime.Time
	CopyBusy     simtime.Time
	HostBusy     simtime.Time
	LastFinish   simtime.Time
	MaxQueueWait simtime.Time
	// MaxQueued is the task-queue high watermark (scheduled + parked tasks
	// observed after each submission).
	MaxQueued int
}

// copyGap is an idle interval on the copy engine earlier than its frontier,
// left behind when a transfer had to wait for its data dependency.
type copyGap struct{ start, end simtime.Time }

// inflight tracks one scheduled task so a fault can cancel its callbacks.
type inflight struct {
	task       *Task
	exec, comp simtime.Timer
	// Accounted busy times, refunded if the task is aborted.
	hostT, copyT, kernT simtime.Time
}

// Device is one simulated accelerator plus its device thread.
type Device struct {
	Name string
	Kind sysinfo.DeviceKind

	eng    *simtime.Engine
	params sysinfo.DeviceParams
	cm     *sysinfo.CostModel
	// hostFreqHz is the clock of the core running the device thread.
	hostFreqHz float64
	// nworkers scales the per-task host cost (CUDA-runtime lock contention).
	nworkers int

	hostFree   simtime.Time
	kernelFree simtime.Time
	// The single half-duplex copy engine: reserved through copyFrontier,
	// with earlier idle gaps available for transfers that fit.
	copyFrontier simtime.Time
	copyGaps     []copyGap

	// Health state (driven by internal/fault via core.System).
	failed     bool
	hung       bool
	kernelSlow float64
	copySlow   float64

	// Silent-corruption state (DeviceCorrupt/CorruptRecover faults). While
	// corrupting, each completing aggregate is — with probability
	// corruptProb, drawn from the per-event corruptRng stream — corrupted
	// by the worker's Execute callback: flipPattern is XORed into one byte
	// of every live packet at an offset drawn from the same stream.
	corrupting  bool
	corruptProb float64
	flipPattern byte
	corruptRng  *rng.Rand

	inflight []*inflight
	// pending holds tasks accepted while hung; Recover reschedules them in
	// submission order.
	pending []*Task
	// progress is when the task queue last started from empty or a task
	// last finished: the stall clock Stalled reads.
	progress simtime.Time

	nextID uint64
	stats  Stats

	// Tracer, when non-nil, receives one event per command-queue phase
	// (submit, H2D copy, launch, kernel, D2H return). TraceActor identifies
	// the device in multi-device traces.
	Tracer     *trace.Tracer
	TraceActor int32

	// Checker, when non-nil, verifies every scheduled task's phase ordering
	// (the gpu.phase invariant).
	Checker *invariant.Checker

	// Watcher, when non-nil, is told after every change to the queue or the
	// health that can let a held-back submitter proceed or start the stall
	// clock: a task finishing, Fail, Hang, Recover, AbortAll, and a Submit
	// into an empty queue.
	Watcher Watcher
}

// Watcher is told about a device's queue and health changes (core's System,
// which wakes the socket's parked workers). An interface, not a func field:
// a closure over the device's socket would be one allocation per device and
// run.
type Watcher interface {
	DeviceChanged(d *Device)
}

// New creates a device on the given engine.
func New(name string, kind sysinfo.DeviceKind, eng *simtime.Engine, cm *sysinfo.CostModel, hostFreqHz float64, nworkers int) (*Device, error) {
	params, err := cm.DeviceParamsOf(kind)
	if err != nil {
		return nil, err
	}
	if nworkers < 1 {
		return nil, fmt.Errorf("gpu: device %s needs at least one worker, got %d", name, nworkers)
	}
	return &Device{
		Name: name, Kind: kind,
		eng: eng, params: params, cm: cm,
		hostFreqHz: hostFreqHz, nworkers: nworkers,
		kernelSlow: 1, copySlow: 1,
	}, nil
}

// Submit enqueues a task at the current virtual time. On a healthy device
// the full pipeline schedule is computed immediately (all stage timelines
// are known) and Execute/Complete callbacks are scheduled. On a failed
// device the task completes immediately with Failed set; on a hung device
// it is parked until Recover. The queue has no bound of its own. The
// submitting workers' outstanding tasks make it up, and each of those holds
// at least one of its worker's batches; the cost model's task cap
// (MaxInflightTasks) stops a worker polling RX, not submitting what it
// already holds.
func (d *Device) Submit(t *Task) {
	d.nextID++
	t.ID = d.nextID
	t.Submitted = d.eng.Now()
	fromEmpty := d.Queued() == 0
	if fromEmpty {
		d.progress = t.Submitted
	}

	d.stats.Tasks++
	d.stats.Packets += uint64(t.NPkts)
	d.stats.H2DBytes += uint64(t.H2DBytes)
	d.stats.D2HBytes += uint64(t.D2HBytes)

	switch {
	case d.failed:
		d.failTask(t)
	case d.hung:
		d.pending = append(d.pending, t)
	default:
		d.schedule(t)
	}
	if q := d.Queued(); q > d.stats.MaxQueued {
		d.stats.MaxQueued = q //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
	}
	if fromEmpty {
		d.changed()
	}
}

// changed tells the Watcher, if set.
func (d *Device) changed() {
	if d.Watcher != nil {
		d.Watcher.DeviceChanged(d)
	}
}

// Queued returns the current task-queue occupancy: scheduled (inflight)
// plus parked (pending) tasks.
func (d *Device) Queued() int { return len(d.inflight) + len(d.pending) }

// Stalled reports whether the device holds queued work and has made no
// progress for at least limit: no task finished, and the queue did not
// start from empty, within the last limit. A hang stalls a device; a
// slowdown or a long queue does not, as long as tasks keep finishing.
func (d *Device) Stalled(limit simtime.Time) bool {
	return d.Queued() > 0 && d.eng.Now()-d.progress >= limit
}

// StallDeadline returns the instant Stalled(limit) turns true if nothing
// changes before it: limit after the last progress, when work is queued.
func (d *Device) StallDeadline(limit simtime.Time) (simtime.Time, bool) {
	return d.progress + limit, d.Queued() > 0
}

// schedule computes the task's pipeline timeline and registers callbacks.
func (d *Device) schedule(t *Task) {
	now := d.eng.Now()

	// Drop copy-engine gaps entirely in the past: transfers become ready no
	// earlier than now, so they can never be filled.
	for len(d.copyGaps) > 0 && d.copyGaps[0].end <= now {
		d.copyGaps = d.copyGaps[1:]
	}

	// Host stage: device-thread CPU handling, serialised on its core.
	hostCycles := d.cm.DeviceTaskFixed + d.cm.DeviceTaskPerWorker*simtime.Cycles(d.nworkers)
	hostTime := simtime.CyclesToTime(hostCycles, d.hostFreqHz)
	hostStart := maxTime(now, d.hostFree)
	t.HostDone = hostStart + hostTime
	d.hostFree = t.HostDone

	// H2D transfer on the shared copy engine.
	h2dTime := d.copyTime(t.H2DBytes)
	h2dStart, h2dEnd := d.allocCopy(t.HostDone, h2dTime)
	t.H2DDone = h2dEnd

	// Kernel stage.
	ktime := simtime.Time(float64(t.KernelTime) * d.params.KernelScale * d.kernelSlow)
	ktime += simtime.Time(float64(simtime.Time(t.Kernels)*d.params.LaunchExtra) * d.kernelSlow)
	kstart := maxTime(t.H2DDone, d.kernelFree)
	t.KernelDone = kstart + ktime
	d.kernelFree = t.KernelDone

	// D2H return on the same copy engine.
	d2hTime := d.copyTime(t.D2HBytes)
	d2hStart, d2hEnd := d.allocCopy(t.KernelDone, d2hTime)
	t.Finish = d2hEnd

	d.stats.HostBusy += hostTime
	d.stats.CopyBusy += h2dTime + d2hTime //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
	d.stats.KernelBusy += ktime           //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
	if t.Finish > d.stats.LastFinish {
		d.stats.LastFinish = t.Finish //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
	}
	if wait := hostStart - now; wait > d.stats.MaxQueueWait {
		d.stats.MaxQueueWait = wait
	}

	if d.Tracer != nil {
		// Phase events carry their scheduled end time in At and (for the
		// copy/kernel phases) the phase start in C, so the command-queue
		// pipeline can be reconstructed as slices.
		tid := int64(t.ID)
		wrk := int64(t.Worker)
		d.Tracer.Emit(now, trace.KindGPUSubmit, d.TraceActor, d.Name,
			tid, int64(t.NPkts), int64(d.Backlog()), wrk)
		d.Tracer.Emit(t.H2DDone, trace.KindGPUCopyH2D, d.TraceActor, d.Name,
			tid, int64(t.H2DBytes), int64(h2dStart), wrk)
		d.Tracer.Emit(kstart, trace.KindGPULaunch, d.TraceActor, d.Name,
			tid, int64(t.Kernels), 0, wrk)
		d.Tracer.Emit(t.KernelDone, trace.KindGPUKernel, d.TraceActor, d.Name,
			tid, int64(t.NPkts), int64(kstart), wrk)
		d.Tracer.Emit(t.Finish, trace.KindGPUCopyD2H, d.TraceActor, d.Name,
			tid, int64(t.D2HBytes), int64(d2hStart), wrk)
	}

	d.Checker.GPUTask(now, d.Name, t.ID, t.Submitted, t.HostDone, t.H2DDone, t.KernelDone, t.Finish)

	it := &inflight{task: t, hostT: hostTime, copyT: h2dTime + d2hTime, kernT: ktime}
	it.exec = d.eng.At(t.KernelDone, func() {
		if t.Execute != nil {
			t.Execute()
		}
	})
	it.comp = d.eng.At(t.Finish, func() {
		d.forget(it)
		d.progress = t.Finish
		if t.Complete != nil {
			t.Complete(t.Finish, t)
		}
		d.changed()
	})
	d.inflight = append(d.inflight, it)
}

// allocCopy reserves dur of time on the copy engine starting no earlier
// than ready: in the earliest idle gap that fits, else at the frontier.
func (d *Device) allocCopy(ready, dur simtime.Time) (start, end simtime.Time) {
	if dur <= 0 {
		return ready, ready
	}
	for i := range d.copyGaps {
		g := d.copyGaps[i]
		s := maxTime(g.start, ready)
		if s+dur > g.end {
			continue
		}
		switch {
		case s == g.start && s+dur == g.end:
			d.copyGaps = append(d.copyGaps[:i], d.copyGaps[i+1:]...)
		case s == g.start:
			d.copyGaps[i].start = s + dur
		case s+dur == g.end:
			d.copyGaps[i].end = s
		default:
			d.copyGaps = append(d.copyGaps, copyGap{})
			copy(d.copyGaps[i+2:], d.copyGaps[i+1:])
			d.copyGaps[i] = copyGap{g.start, s}
			d.copyGaps[i+1] = copyGap{s + dur, g.end}
		}
		return s, s + dur
	}
	start = maxTime(ready, d.copyFrontier)
	if start > d.copyFrontier {
		d.copyGaps = append(d.copyGaps, copyGap{d.copyFrontier, start})
	}
	d.copyFrontier = start + dur
	return start, d.copyFrontier
}

// forget drops a completed or aborted task from the inflight list.
func (d *Device) forget(it *inflight) {
	for i, x := range d.inflight {
		if x == it {
			d.inflight = append(d.inflight[:i], d.inflight[i+1:]...)
			return
		}
	}
}

// failTask completes a task immediately as failed. Execute is not called;
// the submitting worker rescues the aggregate on the CPU.
func (d *Device) failTask(t *Task) {
	t.Failed = true
	t.Finish = d.eng.Now()
	d.stats.FailedTasks++
	d.eng.After(0, func() {
		if t.Complete != nil {
			t.Complete(t.Finish, t)
		}
	})
}

// abortScheduled cancels every in-flight callback, refunds the accounted
// busy time and returns the aborted tasks in scheduling order.
func (d *Device) abortScheduled() []*Task {
	var tasks []*Task
	for _, it := range d.inflight {
		it.exec.Cancel()
		it.comp.Cancel()
		d.stats.HostBusy -= it.hostT
		d.stats.CopyBusy -= it.copyT
		d.stats.KernelBusy -= it.kernT
		tasks = append(tasks, it.task)
	}
	d.inflight = d.inflight[:0]
	return tasks
}

// resetTimelines voids every engine reservation (all stage frontiers move
// to the past, i.e. idle).
func (d *Device) resetTimelines() {
	d.hostFree, d.kernelFree, d.copyFrontier = 0, 0, 0
	d.copyGaps = nil
}

// Fail marks the device failed: in-flight and parked tasks complete
// immediately with Failed set, and so does every Submit until Recover.
func (d *Device) Fail() {
	if d.failed {
		return
	}
	d.failed = true
	d.hung = false
	d.AbortAll()
}

// AbortAll evacuates the device for hot-unplug or after a stall: every
// scheduled and parked task — including tasks parked by an active Hang —
// completes immediately with Failed set so the submitting workers rescue the
// aggregates on the CPU, and all engine reservations are voided. Unlike Fail
// it does NOT touch the health state: the fault plan's device automaton
// (failed / hung / slowed, and its pending Recover events) stays consistent,
// so evacuating a hung device cannot strand its pending tasks and a later
// plug or Recover sees the health the fault timeline says it should.
func (d *Device) AbortAll() {
	tasks := append(d.abortScheduled(), d.pending...)
	d.pending = nil
	d.resetTimelines()
	for _, t := range tasks {
		d.failTask(t)
	}
	d.changed()
}

// Hang freezes the device: in-flight tasks are unscheduled and parked, and
// new submissions park too. Nothing completes (or fails) until Recover, or
// until the device is Stalled and a worker evacuates it with AbortAll.
func (d *Device) Hang() {
	if d.failed || d.hung {
		return
	}
	d.hung = true
	d.pending = append(d.abortScheduled(), d.pending...)
	d.resetTimelines()
	d.changed()
}

// SetSlowdown scales kernel and copy times for subsequently scheduled
// tasks; factors >= 1 slow the device, 1 is nominal, 0 leaves the current
// factor unchanged.
func (d *Device) SetSlowdown(kernelFactor, copyFactor float64) {
	if kernelFactor > 0 {
		d.kernelSlow = kernelFactor
	}
	if copyFactor > 0 {
		d.copySlow = copyFactor
	}
}

// Recover restores a failed, hung or slowed device to nominal and
// reschedules parked tasks in submission order.
func (d *Device) Recover() {
	d.failed, d.hung = false, false
	d.kernelSlow, d.copySlow = 1, 1
	pending := d.pending
	d.pending = nil
	for _, t := range pending {
		d.schedule(t)
	}
	d.changed()
}

// Healthy reports whether the device is neither failed nor hung.
func (d *Device) Healthy() bool { return !d.failed && !d.hung }

// SetCorrupt starts a silent-corruption window: completing aggregates are
// corrupted with per-aggregate probability prob by XORing pattern into one
// byte of each live packet. r is the seeded per-event RNG stream, so the
// corruption pattern is part of the run identity.
func (d *Device) SetCorrupt(prob float64, pattern byte, r *rng.Rand) {
	d.corrupting = true
	d.corruptProb = prob
	d.flipPattern = pattern
	d.corruptRng = r
}

// ClearCorrupt ends the corruption window.
func (d *Device) ClearCorrupt() {
	d.corrupting = false
	d.corruptRng = nil
}

// Corrupting reports whether a corruption window is active.
func (d *Device) Corrupting() bool { return d.corrupting }

// CorruptCoin draws the per-aggregate corruption coin from the window's RNG
// stream. Only valid while Corrupting.
func (d *Device) CorruptCoin() bool { return d.corruptRng.Float64() < d.corruptProb }

// CorruptByte draws the byte offset to flip within a payload of n bytes and
// returns it with the window's XOR pattern. Only valid while Corrupting.
func (d *Device) CorruptByte(n int) (offset int, pattern byte) {
	return d.corruptRng.Intn(n), d.flipPattern
}

func (d *Device) copyTime(bytes int) simtime.Time {
	if bytes <= 0 {
		return 0
	}
	return simtime.Time(float64(bytes) / d.params.CopyBytesPerSec * float64(simtime.Second) * d.copySlow)
}

// Backlog returns how far the device's busiest engine is scheduled into
// the future — the signal core's backlog bound (MaxDeviceBacklog) and the
// load balancers read. A failed device reports zero (submissions fail
// fast); a hung device's backlog decays as the clock advances, so hang
// detection is Stalled, not the backlog bound.
func (d *Device) Backlog() simtime.Time {
	if d.failed {
		return 0
	}
	busiest := maxTime(d.kernelFree, d.copyFrontier)
	b := busiest - d.eng.Now()
	if b < 0 {
		return 0
	}
	return b
}

// Stats returns a snapshot of device statistics.
func (d *Device) Stats() Stats { return d.stats }

// Utilization returns the busy fractions of the kernel and copy engines
// over the given interval. With the single half-duplex copy engine, copyEng
// cannot exceed 1 over an interval covering the accounted activity.
func (d *Device) Utilization(interval simtime.Time) (kernel, copyEng float64) {
	if interval <= 0 {
		return 0, 0
	}
	return float64(d.stats.KernelBusy) / float64(interval),
		float64(d.stats.CopyBusy) / float64(interval)
}

func maxTime(a, b simtime.Time) simtime.Time {
	if a > b {
		return a
	}
	return b
}
