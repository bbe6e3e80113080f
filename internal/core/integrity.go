package core

import (
	"math"

	"nba/internal/integrity"
	"nba/internal/simtime"
	"nba/internal/trace"
)

// escalation is the integrity control plane: a per-device corruption tracker
// fed by the workers' sentinel verifications, which demotes a suspect
// device's ALB ceiling, fail-stops it and probes it back into service. Its
// zero value (Config.Integrity nil) is never fed: no worker has a sentinel.
type escalation struct {
	tracker *integrity.Tracker
	// firstMismatchAt is the virtual time of the first sentinel mismatch,
	// zero until one. A mismatch needs a completed device task, so it never
	// happens at time zero.
	firstMismatchAt simtime.Time
}

// The integrity escalation's constants. The tracker demotes a device once
// before it fails it, so a suspect device keeps service at no more than
// three quarters of the offload share. A fail-stopped device is probed
// again after 500 µs, less than one aggregation age (600 µs): a transient
// corrupter regains service within a millisecond-scale run, and a
// persistent one is re-demoted at its next sampled mismatch.
const (
	demoteStep float64      = 0.25
	probeAfter simtime.Time = 500 * simtime.Microsecond
)

// note folds one sentinel verification outcome into the device's corruption
// score and applies whatever escalation it triggers. Called from the
// worker's completion path, on the serial engine.
func (e *escalation) note(s *System, w *worker, it *inflightTask, mismatch bool) {
	now := w.now()
	dev := w.dev.device
	devIdx := int(dev.TraceActor)
	s.cfg.Tracer.EmitT(now, trace.KindIntegrityCheck, int32(w.id), it.ln.tenant, dev.Name,
		int64(it.task.ID), int64(it.pending.NPkts), b2i(mismatch), int64(devIdx))
	action := e.tracker.Observe(devIdx, mismatch)
	if mismatch {
		if e.firstMismatchAt == 0 {
			e.firstMismatchAt = now
		}
		s.cfg.Tracer.EmitT(now, trace.KindIntegrityMismatch, int32(w.id), it.ln.tenant, dev.Name,
			int64(it.task.ID), int64(it.pending.NPkts),
			int64(math.Float64bits(e.tracker.Score(devIdx))), int64(devIdx))
	}
	switch action {
	case integrity.ActionDemote:
		e.demote(s, devIdx, now)
	case integrity.ActionFailStop:
		e.failStop(s, devIdx, now)
	}
}

// demote ratchets the ALB weight ceiling on the suspect device's socket down
// by demoteStep for every active tenant, steering traffic toward the CPU
// without taking the device out of service (the same mechanism as the
// overload governor's bias ratchet, driven by corruption instead of
// saturation).
func (e *escalation) demote(s *System, devIdx int, now simtime.Time) {
	socket := s.cfg.Topology.Devices[devIdx].Socket
	for t, c := range s.cells[socket] {
		if c.ctl == nil || !s.tstate[t].active {
			continue
		}
		lo, hi := c.ctl.WBounds()
		hi = math.Max(lo, hi-demoteStep)
		c.ctl.SetWBounds(lo, hi)
	}
	e.emit(s, now, devIdx, 0)
}

// failStop takes a device whose corruption score crossed the fail score out
// of service (queued tasks fail back through the workers' CPU rescue path)
// and schedules the recovery probe that re-admits it after probeAfter.
func (e *escalation) failStop(s *System, devIdx int, now simtime.Time) {
	s.devices[devIdx].Fail()
	e.emit(s, now, devIdx, 1)
	s.eng.After(probeAfter, func() { e.probe(s, devIdx) })
}

// probe re-admits a fail-stopped device with a clean score and released
// weight bounds, so a transient corrupter regains service; a device that
// still corrupts is re-demoted by the sentinel on its next sampled mismatch.
func (e *escalation) probe(s *System, devIdx int) {
	if !e.tracker.FailStopped(devIdx) {
		return // already re-admitted (or never integrity-failed)
	}
	e.tracker.Readmit(devIdx)
	s.devices[devIdx].Recover()
	socket := s.cfg.Topology.Devices[devIdx].Socket
	s.cells.release(s, socket, s.wCeiling(socket))
	e.emit(s, s.eng.Now(), devIdx, 2)
}

// emit records one integrity.demote trace record (phase 0 = ALB demotion,
// 1 = fail-stop, 2 = probe re-admit).
func (e *escalation) emit(s *System, now simtime.Time, devIdx int, phase int64) {
	socket := s.cfg.Topology.Devices[devIdx].Socket
	s.cfg.Tracer.Emit(now, trace.KindIntegrityDemote, int32(socket), s.devices[devIdx].Name,
		phase, int64(math.Float64bits(e.tracker.Score(devIdx))),
		int64(e.tracker.Consecutive(devIdx)), int64(devIdx))
}

// report fills each device's final corruption score and the first
// mismatch's time; an unarmed plane reports neither.
func (e *escalation) report(r *Report, ndev int) {
	if e.tracker == nil {
		return
	}
	for i := range ndev {
		r.DeviceCorruptionScores = append(r.DeviceCorruptionScores, e.tracker.Score(i))
	}
	r.FirstMismatchAt = e.firstMismatchAt
}
