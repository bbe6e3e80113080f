// Package fault is the deterministic fault-injection subsystem: scripted
// timelines of device/NIC/load faults that the framework schedules on the
// virtual clock and reacts to by degrading gracefully instead of wedging.
//
// A Plan is pure data. Like the traffic generator and the seed, it is part
// of a run's identity: the same configuration + seed + plan always produce
// the same trace digest, so fault scenarios are replayable and diffable
// exactly like fault-free runs (DESIGN.md §9). Fault application points emit
// trace.KindFaultInject / trace.KindFaultRecover events, so nbatrace shows
// the fault timeline next to the framework's reactions.
//
// The event vocabulary covers the degradation modes the paper's robustness
// claim (§3.4: near-optimal throughput "without application- or
// hardware-specific knowledge" as conditions shift) must survive:
//
//	DeviceFail / DeviceRecover — the accelerator disappears (driver reset,
//	    Xid error); in-flight and new tasks complete immediately as failed
//	    and the workers re-execute them on the CPU.
//	DeviceSlowdown — thermal throttling or PCIe contention: kernel times
//	    and copy times are scaled by per-event factors.
//	DeviceHang — the device stops completing tasks (TDR-style wedge) until
//	    recovery; the workers' task-completion timeout rescues the stuck
//	    aggregates on the CPU.
//	RxQueueDown / RxQueueUp — a NIC queue flaps: arrivals keep accruing and
//	    overflow into drop counters, but no packets are delivered.
//	RateBurst — the offered load is scaled by a factor (use a second event
//	    with factor 1 to end the burst).
//	DeviceCorrupt / CorruptRecover — the device silently returns wrong
//	    results: completed aggregates have bytes flipped with a seeded
//	    per-event RNG stream. Detection and containment live in
//	    internal/integrity (sentinel re-execution, quarantine, demotion).
package fault

import (
	"fmt"
	"sort"

	"nba/internal/simtime"
)

// Kind classifies fault events.
type Kind uint8

const (
	// DeviceFail marks a device failed at Event.At: in-flight tasks fail
	// immediately, and submissions fail until DeviceRecover.
	DeviceFail Kind = iota
	// DeviceRecover restores a failed, hung or slowed device to nominal.
	DeviceRecover
	// DeviceSlowdown scales the device's kernel and copy times by
	// KernelFactor / CopyFactor (>= 1 slows the device; 1 is nominal).
	DeviceSlowdown
	// DeviceHang freezes task completion: tasks submitted or in flight
	// neither complete nor fail until DeviceRecover.
	DeviceHang
	// RxQueueDown stops packet delivery from the queue(s); arrivals keep
	// accruing and overflow into the drop counters.
	RxQueueDown
	// RxQueueUp restores packet delivery.
	RxQueueUp
	// RateBurst scales the current offered load by RateFactor. A second
	// RateBurst with factor 1 restores the nominal rate.
	RateBurst
	// DeviceCorrupt starts a silent-data-corruption window: each offloaded
	// aggregate completing on the device is, with probability CorruptProb,
	// corrupted by XORing FlipPattern into one byte of every live packet.
	// The byte offsets and the per-aggregate coin come from an RNG stream
	// seeded from (run seed, event time, device), so the corruption is part
	// of the run identity like every other fault.
	DeviceCorrupt
	// CorruptRecover ends the corruption window. (DeviceRecover does not:
	// corruption is orthogonal to the fail/hang/slow health state.)
	CorruptRecover

	numKinds
)

var kindNames = [numKinds]string{
	"device.fail",
	"device.recover",
	"device.slowdown",
	"device.hang",
	"rxq.down",
	"rxq.up",
	"rate.burst",
	"device.corrupt",
	"corrupt.recover",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString parses a Kind's String form (reproducer plan files).
func KindFromString(s string) (Kind, error) {
	for i, name := range kindNames {
		if name == s {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", s)
}

// MarshalText / UnmarshalText make a Kind travel as its String form in plan
// files (JSON reproducers), rejecting names KindFromString does not know.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *Kind) UnmarshalText(text []byte) (err error) {
	*k, err = KindFromString(string(text))
	return err
}

// IsRecovery reports whether the kind restores capacity rather than taking
// it away (used to pick the trace event kind).
func (k Kind) IsRecovery() bool {
	return k == DeviceRecover || k == RxQueueUp || k == CorruptRecover
}

// Event is one scheduled fault. Only the fields relevant to the Kind are
// read; the rest stay zero. The json tags are the plan-file format
// (reproducers): times in picoseconds, kinds by name, zero fields omitted.
type Event struct {
	// At is the virtual time the fault is applied.
	At   simtime.Time `json:"at_ps"`
	Kind Kind         `json:"kind"`

	// Device indexes Topology.Devices (device events).
	Device int `json:"device,omitempty"`
	// Port indexes Topology.Ports and Queue the port's RX queues (RX-queue
	// events). Queue -1 targets every queue of the port.
	Port  int `json:"port,omitempty"`
	Queue int `json:"queue,omitempty"`

	// KernelFactor / CopyFactor scale kernel and copy times (DeviceSlowdown;
	// >= 1 slows the device, 1 is nominal; 0 means "leave unchanged").
	KernelFactor float64 `json:"kernel_factor,omitempty"`
	CopyFactor   float64 `json:"copy_factor,omitempty"`

	// RateFactor scales the offered load (RateBurst; must be >= 0).
	RateFactor float64 `json:"rate_factor,omitempty"`

	// CorruptProb is the per-aggregate corruption probability of a
	// DeviceCorrupt window (must be in (0, 1]).
	CorruptProb float64 `json:"corrupt_prob,omitempty"`
	// FlipPattern is the byte XORed into corrupted payloads (DeviceCorrupt;
	// must be nonzero — a zero XOR would be a no-op window).
	FlipPattern byte `json:"flip_pattern,omitempty"`
}

// Plan is a scripted fault timeline. The zero value is an empty plan.
type Plan struct {
	Events []Event
}

// Validate checks the plan against the run's topology (ndev devices, nports
// ports with nqueues RX queues each) and then replays the events in
// application order through a per-target state machine, rejecting
// contradictory timelines: failing an already-failed device, hanging a
// device inside an active fail window, recovering a nominal device, a
// no-op slowdown, or flapping a queue into the state it is already in.
// Contradictions are always authoring bugs — the framework would apply them
// as silent no-ops, making the plan lie about what the run experienced.
func (p *Plan) Validate(ndev, nports, nqueues int) error {
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("fault: event %d (%s) at negative time %v", i, ev.Kind, ev.At)
		}
		switch ev.Kind {
		case DeviceFail, DeviceRecover, DeviceHang:
			if ev.Device < 0 || ev.Device >= ndev {
				return fmt.Errorf("fault: event %d (%s) targets device %d of %d", i, ev.Kind, ev.Device, ndev)
			}
		case DeviceSlowdown:
			if ev.Device < 0 || ev.Device >= ndev {
				return fmt.Errorf("fault: event %d (%s) targets device %d of %d", i, ev.Kind, ev.Device, ndev)
			}
			if ev.KernelFactor < 0 || ev.CopyFactor < 0 {
				return fmt.Errorf("fault: event %d (%s) has negative slowdown factors", i, ev.Kind)
			}
			if ev.KernelFactor == 0 && ev.CopyFactor == 0 {
				return fmt.Errorf("fault: event %d (%s) is a no-op: both factors zero", i, ev.Kind)
			}
		case RxQueueDown, RxQueueUp:
			if ev.Port < 0 || ev.Port >= nports {
				return fmt.Errorf("fault: event %d (%s) targets port %d of %d", i, ev.Kind, ev.Port, nports)
			}
			if ev.Queue < -1 || ev.Queue >= nqueues {
				return fmt.Errorf("fault: event %d (%s) targets queue %d of %d", i, ev.Kind, ev.Queue, nqueues)
			}
		case RateBurst:
			if ev.RateFactor < 0 {
				return fmt.Errorf("fault: event %d (%s) has negative rate factor %v", i, ev.Kind, ev.RateFactor)
			}
		case DeviceCorrupt:
			if ev.Device < 0 || ev.Device >= ndev {
				return fmt.Errorf("fault: event %d (%s) targets device %d of %d", i, ev.Kind, ev.Device, ndev)
			}
			if ev.CorruptProb <= 0 || ev.CorruptProb > 1 {
				return fmt.Errorf("fault: event %d (%s) has corruption probability %v outside (0,1]", i, ev.Kind, ev.CorruptProb)
			}
			if ev.FlipPattern == 0 {
				return fmt.Errorf("fault: event %d (%s) is a no-op: zero flip pattern", i, ev.Kind)
			}
		case CorruptRecover:
			if ev.Device < 0 || ev.Device >= ndev {
				return fmt.Errorf("fault: event %d (%s) targets device %d of %d", i, ev.Kind, ev.Device, ndev)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, ev.Kind)
		}
	}
	return p.validateTimeline(ndev, nports, nqueues)
}

// devState is the per-device health automaton mirrored from gpu.Device.
type devState uint8

const (
	devNominal devState = iota
	devSlowed
	devFailed
	devHung
)

// validateTimeline replays events in application order (Sorted: by time,
// ties by plan position) against per-device and per-queue state.
func (p *Plan) validateTimeline(ndev, nports, nqueues int) error {
	// Sort indices rather than events so error messages cite the event's
	// position in the plan as authored.
	order := make([]int, len(p.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.Events[order[a]].At < p.Events[order[b]].At
	})

	devs := make([]devState, ndev)
	// Corruption is orthogonal to the health automaton: a slowed device can
	// corrupt, but corruption windows must not overlap fail/hang outages —
	// a failed device completes no tasks, so the overlap would silently
	// shrink the window the plan claims to apply.
	corrupting := make([]bool, ndev)
	qDown := make([]bool, nports*nqueues)
	queuesOf := func(ev Event) []int {
		if ev.Queue >= 0 {
			return []int{ev.Port*nqueues + ev.Queue}
		}
		all := make([]int, nqueues)
		for q := 0; q < nqueues; q++ {
			all[q] = ev.Port*nqueues + q
		}
		return all
	}

	for _, i := range order {
		ev := p.Events[i]
		switch ev.Kind {
		case DeviceFail:
			switch devs[ev.Device] {
			case devFailed:
				return fmt.Errorf("fault: event %d (%s) fails device %d which is already failed", i, ev.Kind, ev.Device)
			case devHung:
				return fmt.Errorf("fault: event %d (%s) fails device %d during an active Hang window", i, ev.Kind, ev.Device)
			}
			if corrupting[ev.Device] {
				return fmt.Errorf("fault: event %d (%s) fails device %d during an active Corrupt window", i, ev.Kind, ev.Device)
			}
			devs[ev.Device] = devFailed
		case DeviceHang:
			switch devs[ev.Device] {
			case devFailed:
				return fmt.Errorf("fault: event %d (%s) hangs device %d during an active Fail window", i, ev.Kind, ev.Device)
			case devHung:
				return fmt.Errorf("fault: event %d (%s) hangs device %d which is already hung", i, ev.Kind, ev.Device)
			}
			if corrupting[ev.Device] {
				return fmt.Errorf("fault: event %d (%s) hangs device %d during an active Corrupt window", i, ev.Kind, ev.Device)
			}
			devs[ev.Device] = devHung
		case DeviceSlowdown:
			switch devs[ev.Device] {
			case devFailed, devHung:
				return fmt.Errorf("fault: event %d (%s) slows device %d during an active outage", i, ev.Kind, ev.Device)
			}
			devs[ev.Device] = devSlowed
		case DeviceRecover:
			if devs[ev.Device] == devNominal {
				return fmt.Errorf("fault: event %d (%s) recovers device %d with no prior failure, hang or slowdown", i, ev.Kind, ev.Device)
			}
			devs[ev.Device] = devNominal
		case DeviceCorrupt:
			if corrupting[ev.Device] {
				return fmt.Errorf("fault: event %d (%s) corrupts device %d which is already corrupting", i, ev.Kind, ev.Device)
			}
			switch devs[ev.Device] {
			case devFailed, devHung:
				return fmt.Errorf("fault: event %d (%s) corrupts device %d during an active outage", i, ev.Kind, ev.Device)
			}
			corrupting[ev.Device] = true
		case CorruptRecover:
			if !corrupting[ev.Device] {
				return fmt.Errorf("fault: event %d (%s) clears corruption on device %d which is not corrupting", i, ev.Kind, ev.Device)
			}
			corrupting[ev.Device] = false
		case RxQueueDown:
			for _, q := range queuesOf(ev) {
				if qDown[q] {
					return fmt.Errorf("fault: event %d (%s) downs port %d queue %d which is already down", i, ev.Kind, ev.Port, q%nqueues)
				}
				qDown[q] = true
			}
		case RxQueueUp:
			for _, q := range queuesOf(ev) {
				if !qDown[q] {
					return fmt.Errorf("fault: event %d (%s) restores port %d queue %d which is not down", i, ev.Kind, ev.Port, q%nqueues)
				}
				qDown[q] = false
			}
		}
	}
	return nil
}

// Sorted returns the events ordered by time, ties broken by their position
// in the plan (stable), so application order is deterministic regardless of
// how the plan was assembled.
func (p *Plan) Sorted() []Event {
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// GPUOutage is the canonical outage scenario: device dev fails at failAt and
// recovers at recoverAt. The `faults` bench scenario and nbatrace record
// -faults each build their plan with it over their own window, seeds and LB
// (nbatrace: span/4..span/2); they are two runs, not one shared scenario.
func GPUOutage(failAt, recoverAt simtime.Time, dev int) *Plan {
	return &Plan{Events: []Event{
		{At: failAt, Kind: DeviceFail, Device: dev},
		{At: recoverAt, Kind: DeviceRecover, Device: dev},
	}}
}

// Corruption is the canonical silent-corruption scenario: device dev starts
// flipping bits at `at` (per-aggregate probability prob, XOR pattern) and
// stops at recoverAt. The `integrity` bench scenario and nbatrace record
// -corrupt each build their plan with it (both over span/4..span/2, but with
// their own seeds, LB and sampling rate); they are two runs, not one.
func Corruption(at, recoverAt simtime.Time, dev int, prob float64, pattern byte) *Plan {
	return &Plan{Events: []Event{
		{At: at, Kind: DeviceCorrupt, Device: dev, CorruptProb: prob, FlipPattern: pattern},
		{At: recoverAt, Kind: CorruptRecover, Device: dev},
	}}
}

// Burst returns the two events of an offered-load burst: scale by factor at
// `at`, restore the nominal rate at `at+dur`.
func Burst(at, dur simtime.Time, factor float64) []Event {
	return []Event{
		{At: at, Kind: RateBurst, RateFactor: factor},
		{At: at + dur, Kind: RateBurst, RateFactor: 1},
	}
}
