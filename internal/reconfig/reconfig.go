// Package reconfig is the deterministic runtime-reconfiguration control
// plane: scripted timelines of control-plane changes (tenant admit/evict,
// traffic-share retune, device hot-plug/unplug, RX-queue resize) that
// core.System applies to a *running* datapath via an epoch-based
// drain-and-handoff protocol.
//
// A Plan is pure data. Like a fault plan, it is part of a run's identity:
// the same configuration + seed + plan always produce the same trace
// digest, and an empty plan leaves the run byte-identical to an
// unconfigured one. Each event opens an epoch on the virtual clock:
//
//	begin  — quiesce the affected (worker,tenant) lanes or device: stop new
//	         arrivals / submissions, leave in-flight work running.
//	drain  — wait (bounded by DrainGrace) for in-flight aggregates, device
//	         tasks and ring backlogs to empty; at the grace deadline the
//	         remaining tasks are force-rescued through the existing
//	         CPU-fallback path.
//	commit — apply the change (re-split sched.WRR shares and tenant-major
//	         queue maps, re-seat ALB controllers and governors, seal or open
//	         per-tenant digests), then resume.
//
// Epochs are serialized: an event that fires while another epoch is in
// flight defers until that epoch commits, preserving plan order. The
// protocol emits trace.KindReconfigBegin / Drain / Commit events so
// nbatrace shows every epoch next to the datapath's reaction.
package reconfig

import (
	"fmt"
	"math"
	"sort"

	"nba/internal/simtime"
)

// Kind classifies reconfiguration events.
type Kind uint8

const (
	// TenantAdmit admits the named latent tenant: new lanes, RX queues, an
	// ALB controller and a governor slot are created and shares re-split.
	TenantAdmit Kind = iota
	// TenantEvict drains and removes the named tenant: arrivals stop at
	// begin, the lanes drain (bounded by DrainGrace), the pooled packets
	// return, and the tenant's trace digest is sealed at commit.
	TenantEvict
	// ShareRetune changes the named tenant's traffic share; the WRR split
	// and per-queue arrival rates re-balance at commit.
	ShareRetune
	// DeviceUnplug removes a device from service: new submissions re-route
	// (to another plugged device or the CPU path) at begin, queued tasks
	// drain or are force-rescued, and the socket's ALB controllers re-seat
	// at commit.
	DeviceUnplug
	// DevicePlug returns an unplugged device to service and re-seats the
	// socket's ALB controllers.
	DevicePlug
	// QueueResize re-sizes the RX rings of a port (Port -1 = every port);
	// shrinking head-drops the overflow, exactly like arrival overflow.
	QueueResize

	numKinds
)

var kindNames = [numKinds]string{
	"tenant.admit",
	"tenant.evict",
	"share.retune",
	"device.unplug",
	"device.plug",
	"queue.resize",
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
	return 0, fmt.Errorf("reconfig: unknown kind %q", s)
}

// MarshalText / UnmarshalText make a Kind travel as its String form in plan
// files (JSON reproducers), rejecting names KindFromString does not know.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

func (k *Kind) UnmarshalText(text []byte) (err error) {
	*k, err = KindFromString(string(text))
	return err
}

// Event is one scheduled reconfiguration. Only the fields relevant to the
// Kind are read; the rest stay zero. The json tags are the plan-file format
// (reproducers): times in picoseconds, kinds by name, zero fields omitted.
type Event struct {
	// At is the virtual time the epoch begins.
	At   simtime.Time `json:"at_ps"`
	Kind Kind         `json:"kind"`

	// Tenant names the target of tenant events. Admit targets must name a
	// latent tenant from core.Config.LatentTenants; evict and retune
	// targets must name a tenant active at Event.At.
	Tenant string `json:"tenant,omitempty"`
	// Share is the new traffic share (ShareRetune, required > 0) or an
	// override of the latent tenant's configured share (TenantAdmit,
	// 0 = keep the configured share).
	Share float64 `json:"share,omitempty"`

	// Device indexes Topology.Devices (plug/unplug events).
	Device int `json:"device,omitempty"`

	// Port indexes Topology.Ports (QueueResize; -1 targets every port) and
	// Capacity is the new per-ring capacity in packets (required >= 1).
	Port     int `json:"port,omitempty"`
	Capacity int `json:"capacity,omitempty"`
}

// Plan is a scripted reconfiguration timeline. The zero value is an empty
// plan: armed but inert, it schedules nothing and leaves the trace digest
// byte-identical to an unconfigured run.
type Plan struct {
	Events []Event
}

// Validate checks the plan against the run's shape — initial holds the
// names of the tenants active at construction, latent the admittable pool
// (core.Config.LatentTenants), ndev / nports the device and port counts —
// and then replays the events in application order through per-tenant and
// per-device state machines, rejecting contradictory timelines: admitting
// a tenant whose share is already in the split, evicting an unknown or
// already-evicted tenant, retuning an inactive one, re-admitting an
// evicted one, unplugging an unplugged device. Contradictions are always
// authoring bugs — applied as silent no-ops they would make the plan lie
// about what the run experienced.
func (p *Plan) Validate(initial, latent []string, ndev, nports int) error {
	known := make(map[string]bool, len(initial)+len(latent))
	for _, set := range [][]string{initial, latent} {
		for _, name := range set {
			if name == "" {
				return fmt.Errorf("reconfig: empty tenant name in the run's tenant sets")
			}
			if known[name] {
				return fmt.Errorf("reconfig: tenant name %q appears twice across initial+latent sets", name)
			}
			known[name] = true
		}
	}
	for i, ev := range p.Events {
		if ev.At < 0 {
			return fmt.Errorf("reconfig: event %d (%s) at negative time %v", i, ev.Kind, ev.At)
		}
		if math.IsNaN(ev.Share) || math.IsInf(ev.Share, 0) {
			return fmt.Errorf("reconfig: event %d (%s) has non-finite share %v", i, ev.Kind, ev.Share)
		}
		switch ev.Kind {
		case TenantAdmit:
			if !known[ev.Tenant] {
				return fmt.Errorf("reconfig: event %d (%s) admits unknown tenant %q", i, ev.Kind, ev.Tenant)
			}
			if ev.Share < 0 {
				return fmt.Errorf("reconfig: event %d (%s) admits %q with negative share %v", i, ev.Kind, ev.Tenant, ev.Share)
			}
		case TenantEvict:
			if !known[ev.Tenant] {
				return fmt.Errorf("reconfig: event %d (%s) evicts unknown tenant %q", i, ev.Kind, ev.Tenant)
			}
		case ShareRetune:
			if !known[ev.Tenant] {
				return fmt.Errorf("reconfig: event %d (%s) retunes unknown tenant %q", i, ev.Kind, ev.Tenant)
			}
			if ev.Share <= 0 {
				return fmt.Errorf("reconfig: event %d (%s) retunes %q to non-positive share %v", i, ev.Kind, ev.Tenant, ev.Share)
			}
		case DeviceUnplug, DevicePlug:
			if ev.Device < 0 || ev.Device >= ndev {
				return fmt.Errorf("reconfig: event %d (%s) targets device %d of %d", i, ev.Kind, ev.Device, ndev)
			}
		case QueueResize:
			if ev.Port < -1 || ev.Port >= nports {
				return fmt.Errorf("reconfig: event %d (%s) targets port %d of %d", i, ev.Kind, ev.Port, nports)
			}
			if ev.Capacity < 1 {
				return fmt.Errorf("reconfig: event %d (%s) resizes to capacity %d (must be >= 1)", i, ev.Kind, ev.Capacity)
			}
		default:
			return fmt.Errorf("reconfig: event %d has unknown kind %d", i, ev.Kind)
		}
	}
	return p.validateTimeline(initial, latent, ndev)
}

// tenantState is the per-tenant lifecycle automaton mirrored from
// core.System's epoch protocol.
type tenantState uint8

const (
	tenantLatent tenantState = iota
	tenantActive
	tenantEvicted
)

// validateTimeline replays events in application order (Sorted: by time,
// ties by plan position) against per-tenant and per-device state.
func (p *Plan) validateTimeline(initial, latent []string, ndev int) error {
	// Sort indices rather than events so error messages cite the event's
	// position in the plan as authored.
	order := make([]int, len(p.Events))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.Events[order[a]].At < p.Events[order[b]].At
	})

	tenants := make(map[string]tenantState, len(initial)+len(latent))
	for _, name := range initial {
		tenants[name] = tenantActive
	}
	for _, name := range latent {
		tenants[name] = tenantLatent
	}
	plugged := make([]bool, ndev)
	for d := range plugged {
		plugged[d] = true
	}

	for _, i := range order {
		ev := p.Events[i]
		switch ev.Kind {
		case TenantAdmit:
			switch tenants[ev.Tenant] {
			case tenantActive:
				return fmt.Errorf("reconfig: event %d (%s) admits tenant %q whose share is already in the split", i, ev.Kind, ev.Tenant)
			case tenantEvicted:
				return fmt.Errorf("reconfig: event %d (%s) re-admits evicted tenant %q (its digest is sealed)", i, ev.Kind, ev.Tenant)
			}
			tenants[ev.Tenant] = tenantActive
		case TenantEvict:
			switch tenants[ev.Tenant] {
			case tenantLatent:
				return fmt.Errorf("reconfig: event %d (%s) evicts tenant %q which was never admitted", i, ev.Kind, ev.Tenant)
			case tenantEvicted:
				return fmt.Errorf("reconfig: event %d (%s) evicts tenant %q twice", i, ev.Kind, ev.Tenant)
			}
			tenants[ev.Tenant] = tenantEvicted
		case ShareRetune:
			if tenants[ev.Tenant] != tenantActive {
				return fmt.Errorf("reconfig: event %d (%s) retunes tenant %q which is not active", i, ev.Kind, ev.Tenant)
			}
		case DeviceUnplug:
			if !plugged[ev.Device] {
				return fmt.Errorf("reconfig: event %d (%s) unplugs device %d which is already unplugged", i, ev.Kind, ev.Device)
			}
			plugged[ev.Device] = false
		case DevicePlug:
			if plugged[ev.Device] {
				return fmt.Errorf("reconfig: event %d (%s) plugs device %d which is already plugged", i, ev.Kind, ev.Device)
			}
			plugged[ev.Device] = true
		}
	}
	return nil
}

// Sorted returns the events ordered by time, ties broken by their position
// in the plan (stable), so epoch order is deterministic regardless of how
// the plan was assembled. Same-tick events serialize: the later one's
// epoch begins when the earlier one's commits.
func (p *Plan) Sorted() []Event {
	out := append([]Event(nil), p.Events...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Churn is the canonical churn scenario behind `nbatrace record -reconfig`
// and the bench `reconfig` experiment: the named latent tenant is admitted
// at 1/4 of the span, its share is doubled at 1/2, and it is evicted at
// 3/4 — so one recording exercises admit, retune and evict epochs against
// a steady victim.
func Churn(span simtime.Time, tenant string) *Plan {
	return &Plan{Events: []Event{
		{At: span / 4, Kind: TenantAdmit, Tenant: tenant},
		{At: span / 2, Kind: ShareRetune, Tenant: tenant, Share: 2},
		{At: span * 3 / 4, Kind: TenantEvict, Tenant: tenant},
	}}
}
