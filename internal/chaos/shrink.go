package chaos

import (
	"nba/internal/fault"
	"nba/internal/reconfig"
	"nba/internal/simtime"
)

// shrinkGrid quantises shrunk event times, matching fault.RandomPlan's
// generation grid so reproducers stay tidy.
const shrinkGrid = 10 * simtime.Microsecond

// Shrink reduces a failing fault plan to a minimal reproducer by greedy
// delta debugging: candidate transformations are tried in a fixed order
// (single event removal, same-target pair removal, factor halving toward
// nominal, fault-window halving) and any candidate that still fails
// restarts the scan. The result is a fixed point: no single transformation
// both keeps the plan valid and keeps it failing.
//
// stillFails must re-run the case with the candidate plan and report
// whether it still violates an invariant; valid gates candidates on
// Plan.Validate for the run's topology. maxRuns bounds the number of
// stillFails calls (shrinking is search, and each probe is a full run); the
// best plan found so far is returned when the budget runs out, along with
// the number of probes spent.
func Shrink(plan *fault.Plan, stillFails func(*fault.Plan) bool, valid func(*fault.Plan) bool, maxRuns int) (*fault.Plan, int) {
	on := func(f func(*fault.Plan) bool) func([]fault.Event) bool {
		return func(evs []fault.Event) bool { return f(&fault.Plan{Events: evs}) }
	}
	evs, runs := shrink(plan.Events, on(stillFails), on(valid), maxRuns, sameTarget, weakenOnce)
	return &fault.Plan{Events: evs}, runs
}

// ShrinkReconfig reduces a failing reconfiguration plan the same way Shrink
// reduces a fault plan, with the two removal passes only: a pair is an
// admit+evict of one tenant or an unplug+plug of one device, whose single
// removals the timeline validator rejects.
func ShrinkReconfig(plan *reconfig.Plan, stillFails func(*reconfig.Plan) bool, valid func(*reconfig.Plan) bool, maxRuns int) (*reconfig.Plan, int) {
	on := func(f func(*reconfig.Plan) bool) func([]reconfig.Event) bool {
		return func(evs []reconfig.Event) bool { return f(&reconfig.Plan{Events: evs}) }
	}
	evs, runs := shrink(plan.Events, on(stillFails), on(valid), maxRuns, sameReconfigTarget, nil)
	return &reconfig.Plan{Events: evs}, runs
}

// shrink is the fixed-point driver: it tries every candidate transformation
// of the current timeline in deterministic order — the removal passes, then
// the caller's own (more, may be nil) — and restarts from the first one that
// is valid and still fails, until none is or the probe budget is spent.
func shrink[E any](events []E, stillFails, valid func([]E) bool, maxRuns int,
	sameTarget func(a, b E) bool, more func(cur []E, try func([]E) bool) ([]E, bool)) ([]E, int) {
	cur := append([]E(nil), events...)
	runs := 0
	try := func(cand []E) bool {
		if runs >= maxRuns || !valid(cand) {
			return false
		}
		runs++
		return stillFails(cand)
	}
	for {
		cand, ok := removeOnce(cur, try, sameTarget)
		if !ok && more != nil {
			cand, ok = more(cur, try)
		}
		if !ok {
			return cur, runs
		}
		cur = cand
	}
}

func removeOnce[E any](cur []E, try func([]E) bool, sameTarget func(a, b E) bool) ([]E, bool) {
	// 1. Remove a single event. Scanning from the end first tends to strip
	// trailing recovery events (whose windows then extend to the horizon),
	// late evicts and replugs before touching the event that matters.
	for i := len(cur) - 1; i >= 0; i-- {
		if cand := without(cur, i, -1); try(cand) {
			return cand, true
		}
	}
	// 2. Remove a same-target pair (a whole fault window or tenant/device
	// lifecycle at once: the single removals above may both fail while
	// removing the pair works, e.g. dropping an unrelated fail+recover window
	// whose recover alone would make the plan invalid).
	for i := 0; i < len(cur); i++ {
		for j := i + 1; j < len(cur); j++ {
			if !sameTarget(cur[i], cur[j]) {
				continue
			}
			if cand := without(cur, i, j); try(cand) {
				return cand, true
			}
		}
	}
	return nil, false
}

// without copies the events minus index i (and j, when >= 0).
func without[E any](events []E, i, j int) []E {
	out := make([]E, 0, len(events))
	for k, ev := range events {
		if k != i && k != j {
			out = append(out, ev)
		}
	}
	return out
}

// weakenOnce holds the fault-only passes: magnitudes, then windows.
func weakenOnce(cur []fault.Event, try func([]fault.Event) bool) ([]fault.Event, bool) {
	// edit returns a copy of cur with event i passed through set.
	edit := func(i int, set func(*fault.Event)) []fault.Event {
		cand := append([]fault.Event(nil), cur...)
		set(&cand[i])
		return cand
	}
	// 3. Halve fault magnitudes toward nominal (factor 1).
	for i, ev := range cur {
		var cand []fault.Event
		switch ev.Kind {
		case fault.DeviceSlowdown:
			k, kok := halveFactor(ev.KernelFactor)
			c, cok := halveFactor(ev.CopyFactor)
			if !kok && !cok {
				continue
			}
			cand = edit(i, func(e *fault.Event) { e.KernelFactor, e.CopyFactor = k, c })
		case fault.RateBurst:
			f, ok := halveFactor(ev.RateFactor)
			if !ok {
				continue
			}
			cand = edit(i, func(e *fault.Event) { e.RateFactor = f })
		case fault.DeviceCorrupt:
			// Halve the corruption probability toward zero (the validator
			// rejects 0, so the halving bottoms out on its own).
			if ev.CorruptProb <= 0.05 {
				continue
			}
			cand = edit(i, func(e *fault.Event) { e.CorruptProb /= 2 })
		default:
			continue
		}
		if try(cand) {
			return cand, true
		}
	}
	// 4. Halve fault windows: move each closing event halfway toward its
	// opener.
	for i, ev := range cur {
		if !closesWindow(ev) {
			continue
		}
		j := openerOf(cur, i)
		if j < 0 {
			continue
		}
		mid := midpoint(cur[j].At, ev.At)
		if mid <= cur[j].At || mid >= ev.At {
			continue
		}
		if cand := edit(i, func(e *fault.Event) { e.At = mid }); try(cand) {
			return cand, true
		}
	}
	return nil, false
}

// sameReconfigTarget reports whether two reconfig events act on the same
// tenant or device, so removing both plausibly removes one whole lifecycle.
func sameReconfigTarget(a, b reconfig.Event) bool {
	if tenantReconfigKind(a.Kind) && tenantReconfigKind(b.Kind) {
		return a.Tenant == b.Tenant
	}
	if deviceReconfigKind(a.Kind) && deviceReconfigKind(b.Kind) {
		return a.Device == b.Device
	}
	return a.Kind == reconfig.QueueResize && b.Kind == reconfig.QueueResize && a.Port == b.Port
}

func tenantReconfigKind(k reconfig.Kind) bool {
	switch k {
	case reconfig.TenantAdmit, reconfig.TenantEvict, reconfig.ShareRetune:
		return true
	}
	return false
}

func deviceReconfigKind(k reconfig.Kind) bool {
	return k == reconfig.DeviceUnplug || k == reconfig.DevicePlug
}

// sameTarget reports whether two events act on the same fault target, so
// removing both plausibly removes one whole fault window.
func sameTarget(a, b fault.Event) bool {
	if deviceKind(a.Kind) && deviceKind(b.Kind) {
		return a.Device == b.Device
	}
	if queueKind(a.Kind) && queueKind(b.Kind) {
		return a.Port == b.Port && a.Queue == b.Queue
	}
	return a.Kind == fault.RateBurst && b.Kind == fault.RateBurst
}

func deviceKind(k fault.Kind) bool {
	switch k {
	case fault.DeviceFail, fault.DeviceRecover, fault.DeviceSlowdown, fault.DeviceHang,
		fault.DeviceCorrupt, fault.CorruptRecover:
		return true
	}
	return false
}

func queueKind(k fault.Kind) bool {
	return k == fault.RxQueueDown || k == fault.RxQueueUp
}

// closesWindow reports whether the event restores capacity taken by an
// earlier event (the end of a fault window).
func closesWindow(ev fault.Event) bool {
	return ev.Kind.IsRecovery() || (ev.Kind == fault.RateBurst && ev.RateFactor == 1)
}

// openerOf finds the latest earlier same-target non-closing event — the
// start of the window that event i closes. Returns -1 when there is none.
func openerOf(events []fault.Event, i int) int {
	ev := events[i]
	best := -1
	for j, o := range events {
		if j == i || closesWindow(o) || !sameTarget(o, ev) || o.At >= ev.At {
			continue
		}
		if best < 0 || o.At > events[best].At {
			best = j
		}
	}
	return best
}

// halveFactor moves a scaling factor halfway toward nominal (1), on a
// coarse grid; ok is false when it is already within 10% of nominal.
func halveFactor(f float64) (float64, bool) {
	if f == 0 { // "leave unchanged" sentinel, nothing to halve
		return f, false
	}
	next := 1 + (f-1)/2
	if diff := next - f; diff < 0.05 && diff > -0.05 {
		return f, false
	}
	return next, true
}

// midpoint returns the grid-aligned middle of a window.
func midpoint(a, b simtime.Time) simtime.Time {
	m := (a + b) / 2
	return m / shrinkGrid * shrinkGrid
}
