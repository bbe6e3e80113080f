package core

import (
	"math"

	"nba/internal/fault"
	"nba/internal/rng"
	"nba/internal/trace"
)

// faultApplier is the fault control plane: it applies Config.FaultPlan's
// events on the virtual clock. Its zero value (no plan, or an empty one)
// schedules nothing.
type faultApplier struct {
	sys    *System
	events []fault.Event // the plan, sorted
	next   int           // the next event to apply
	fire   func()        // fireNext, bound once
}

// arm schedules every plan event. Sorted() fixes the application order for
// same-time events (stable in plan order), and the engine's scheduling
// sequence breaks ties against other events deterministically: the events
// fire in sorted order, so each firing applies the next one.
func (f *faultApplier) arm(s *System) {
	plan := s.cfg.FaultPlan
	if plan == nil || len(plan.Events) == 0 {
		return
	}
	f.sys = s
	f.events = plan.Sorted()
	f.fire = f.fireNext
	for _, ev := range f.events {
		s.eng.At(ev.At, f.fire)
	}
}

// fireNext applies the next plan event.
func (f *faultApplier) fireNext() {
	f.apply(f.sys, f.events[f.next])
	f.next++
}

// apply executes one fault-plan event and emits its trace record: the
// event's kind, its target (device, port or rate factor) and its queue or
// corruption probability.
func (f *faultApplier) apply(s *System, ev fault.Event) {
	defer s.wakeSocket(-1)
	target, queue := int64(ev.Device), int64(0)
	switch ev.Kind {
	case fault.DeviceFail:
		s.devices[ev.Device].Fail()
	case fault.DeviceRecover:
		s.devices[ev.Device].Recover()
	case fault.DeviceSlowdown:
		s.devices[ev.Device].SetSlowdown(ev.KernelFactor, ev.CopyFactor)
	case fault.DeviceHang:
		s.devices[ev.Device].Hang()
	case fault.RxQueueDown, fault.RxQueueUp:
		target, queue = int64(ev.Port), int64(ev.Queue)
		for qi, q := range s.ports[ev.Port].Rx {
			if ev.Queue == -1 || ev.Queue == qi {
				q.SetDown(ev.Kind == fault.RxQueueDown)
			}
		}
	case fault.RateBurst:
		target = int64(math.Float64bits(ev.RateFactor))
		s.rateFactor = ev.RateFactor
		s.applyRate()
	case fault.DeviceCorrupt:
		// The byte-flip stream is seeded from (run seed, event time, device),
		// so the corruption pattern is part of the run's identity: replaying
		// the same plan under the same seed corrupts the same bytes.
		s.devices[ev.Device].SetCorrupt(ev.CorruptProb, ev.FlipPattern, s.newCorruptRand(ev))
		queue = int64(math.Float64bits(ev.CorruptProb))
	case fault.CorruptRecover:
		s.devices[ev.Device].ClearCorrupt()
	}
	kind := trace.KindFaultInject
	if ev.Kind.IsRecovery() {
		kind = trace.KindFaultRecover
	}
	s.cfg.Tracer.Emit(s.eng.Now(), kind, -1, ev.Kind.String(), int64(ev.Kind), target, queue, 0)
}

// newCorruptRand derives the byte-flip stream for one DeviceCorrupt event
// from (run seed, event time, device), making the corruption pattern part of
// the run's identity.
func (s *System) newCorruptRand(ev fault.Event) *rng.Rand {
	return rng.New((s.cfg.Seed*0x9E3779B97F4A7C15 ^ 0xD6E8FEB86659FD93) +
		uint64(ev.At)*0x9D2C5680F4A7C159 + uint64(ev.Device) + 1)
}
