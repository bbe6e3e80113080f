// Package simtime provides the deterministic discrete-event virtual-time
// engine that underlies the NBA simulation substrate.
//
// All performance-sensitive behaviour in this reproduction (worker IO loops,
// GPU command queues, NIC arrival processes, load-balancer update timers) is
// expressed as events on a single virtual clock. Ties are broken by the
// virtual time an event was scheduled at (AtAsOf can set it), then by
// schedule order, so a run is a pure function of its inputs: the same
// configuration and seed always produce bit-identical results, independent
// of the host machine, the Go scheduler, and the garbage collector.
package simtime

import (
	"container/heap"
	"fmt"
)

// Time is a point in virtual time, measured in picoseconds. Picosecond
// resolution keeps CPU-cycle accounting exact: one cycle of a 2.6 GHz core is
// 384.6 ps and would be unrepresentable at nanosecond granularity without
// accumulating rounding error over millions of packets.
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Nanos returns t expressed in nanoseconds.
func (t Time) Nanos() float64 { return float64(t) / float64(Nanosecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Micros())
	case t >= Nanosecond:
		return fmt.Sprintf("%.6gns", t.Nanos())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Cycles counts CPU (or accelerator) clock cycles. Cycle costs are the unit
// of the calibrated cost model; they convert to Time through a core frequency.
type Cycles int64

// CyclesToTime converts a cycle count at the given frequency (Hz) to virtual
// time, rounding up so that charging a positive cost always advances time.
func CyclesToTime(c Cycles, hz float64) Time {
	if c <= 0 {
		return 0
	}
	ps := float64(c) * 1e12 / hz
	t := Time(ps)
	if float64(t) < ps {
		t++
	}
	return t
}

// TimeToCycles converts a duration at the given frequency (Hz) to whole
// cycles, rounding down.
func TimeToCycles(t Time, hz float64) Cycles {
	if t <= 0 {
		return 0
	}
	return Cycles(float64(t) / 1e12 * hz)
}

// event is a scheduled callback. Events are recycled through the engine's
// free list once fired or cancelled; gen disambiguates a recycled slot from
// the event a stale Timer still points at.
type event struct {
	at Time
	// asOf and seq order events of equal time: by the virtual time they
	// were scheduled at, then by schedule order. For an event scheduled
	// with At, asOf is the clock at the call, which never decreases as seq
	// grows, so the order is plain schedule order; AtAsOf and Move place an
	// event as if it had been scheduled at an earlier or later instant.
	asOf Time
	seq  uint64
	fn   func()
	gen  uint64 // bumped on every reuse; Timers carry the gen they were issued
	// idx is the heap index, maintained by eventHeap. An int32 beside dead
	// keeps the event at 48 bytes, its size class before asOf.
	idx  int32
	dead bool // cancelled
}

// Timer is a handle to a scheduled event that can be cancelled. It is a
// small value (the zero Timer is valid and Cancel on it is a no-op), so
// holding one in a struct costs no allocation. A Timer outliving its event
// is safe: once the event fires, is cancelled, or its storage is recycled
// for a later event, Cancel becomes a no-op.
type Timer struct {
	ev  *event
	gen uint64
}

// Cancel prevents the callback from running. Cancelling an already-fired,
// already-cancelled or zero timer is a no-op. It reports whether the
// cancellation took effect.
func (t Timer) Cancel() bool {
	if t.ev == nil || t.ev.gen != t.gen || t.ev.dead {
		return false
	}
	t.ev.dead = true
	t.ev.fn = nil
	return true
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].asOf != h[j].asOf {
		return h[i].asOf < h[j].asOf
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = int32(i)
	h[j].idx = int32(j)
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = int32(len(*h))
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine is a single-threaded discrete-event simulation engine. It is not
// safe for concurrent use; all actors run interleaved on the virtual clock.
type Engine struct {
	now     Time
	seq     uint64
	events  eventHeap
	stopped bool
	// asOf is the running event's asOf (RunningAsOf).
	asOf Time
	// free recycles event structs: the steady-state schedule/fire cycle of
	// the worker and device loops allocates nothing once the free list is
	// warm (the hotalloc lint gate and TestScheduleSteadyStateAllocs pin
	// this).
	free []*event

	// Fired counts events executed; useful for progress/diagnostics.
	Fired uint64

	// OnFire, when non-nil, is invoked for every executed event just before
	// its callback runs, with the event's timestamp and its execution index
	// (the value Fired had when the event fired, counting from 1). It exists
	// for the trace observability layer; it must not schedule or cancel
	// events.
	OnFire func(at Time, fired uint64)
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it always indicates a cost-accounting bug in the caller.
//
//nba:hotpath
func (e *Engine) At(t Time, fn func()) Timer {
	return e.AtAsOf(t, e.now, fn)
}

// AtAsOf schedules fn to run at t, ordered among the events at t as if it
// had been scheduled at virtual time asOf: after every event at t
// scheduled before asOf, before every one scheduled after it, and after
// those scheduled at asOf itself before this call. A periodic actor that
// skips some of its firings uses it to keep the place its next firing
// would have taken (core's parked workers). asOf may lie in the past or the
// future but not after t.
//
//nba:hotpath
func (e *Engine) AtAsOf(t, asOf Time, fn func()) Timer {
	e.checkAt(t, asOf)
	var ev *event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.gen++
	} else {
		ev = &event{} //nbalint:allow hotalloc free-list warm-up; steady state reuses fired events
	}
	ev.at, ev.asOf, ev.seq, ev.fn, ev.dead = t, asOf, e.seq, fn, false
	e.seq++
	heap.Push(&e.events, ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Move re-times the pending event behind tm to t, ordered as AtAsOf(t, asOf)
// would order a new event, and reports whether tm was pending. The event is
// fixed in place in the heap and keeps its callback and its Timer, so
// moving it leaves no cancelled event behind and allocates nothing:
// Move(tm, t, Now()) fires exactly where Cancel followed by At(t) would.
//
//nba:hotpath
func (e *Engine) Move(tm Timer, t, asOf Time) bool {
	ev := tm.ev
	if ev == nil || ev.gen != tm.gen || ev.dead {
		return false
	}
	e.checkAt(t, asOf)
	ev.at, ev.asOf, ev.seq = t, asOf, e.seq
	e.seq++
	heap.Fix(&e.events, int(ev.idx))
	return true
}

// RunningAsOf returns the asOf of the event whose callback is running: the
// virtual time it was scheduled at, or the asOf it was scheduled or moved
// with.
func (e *Engine) RunningAsOf() Time { return e.asOf }

func (e *Engine) checkAt(t, asOf Time) {
	if t < e.now {
		panic(fmt.Sprintf("simtime: schedule at %v before now %v", t, e.now))
	}
	if asOf > t {
		panic(fmt.Sprintf("simtime: schedule at %v as of the later %v", t, asOf))
	}
}

// After schedules fn to run d after the current time. Negative d is treated
// as zero.
//
//nba:hotpath
func (e *Engine) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return e.At(e.now+d, fn)
}

// Stop makes the current Run call return after the in-progress
// event completes.
func (e *Engine) Stop() { e.stopped = true }

// Len returns the number of pending (non-cancelled) events.
func (e *Engine) Len() int {
	n := 0
	for _, ev := range e.events {
		if !ev.dead {
			n++
		}
	}
	return n
}

// Run executes events in timestamp order until no events remain or Stop is
// called.
func (e *Engine) Run() {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		e.step()
	}
}

//nba:hotpath
func (e *Engine) step() {
	ev := heap.Pop(&e.events).(*event)
	if ev.dead {
		e.free = append(e.free, ev) //nbalint:allow hotalloc free-list growth is bounded by peak pending events
		return
	}
	e.now, e.asOf = ev.at, ev.asOf
	fn := ev.fn
	ev.fn = nil
	ev.dead = true
	// Recycle before running the callback: nothing references ev anymore,
	// and a callback scheduling a new event can reuse it immediately. Stale
	// Timers are fenced by the generation counter.
	e.free = append(e.free, ev) //nbalint:allow hotalloc free-list growth is bounded by peak pending events
	e.Fired++
	if e.OnFire != nil {
		e.OnFire(e.now, e.Fired)
	}
	fn()
}
