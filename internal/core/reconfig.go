package core

import (
	"fmt"
	"math"
	"sort"

	"nba/internal/conflang"
	"nba/internal/element"
	"nba/internal/graph"
	"nba/internal/invariant"
	"nba/internal/reconfig"
	"nba/internal/rng"
	"nba/internal/simtime"
	"nba/internal/trace"
)

// epochMachine is the reconfiguration control plane: it runs
// Config.Reconfig's events as serialized epochs (quiesce, drain, commit).
// Its zero value (no plan, or an empty one) schedules nothing, so the event
// timeline — and every golden digest — is byte-identical to an
// unconfigured run.
type epochMachine struct {
	events   []reconfig.Event // sorted, At <= stopTime
	next     int              // the next event to begin
	active   bool             // an epoch is in flight
	epoch    int              // the current (or last) epoch's number
	begin    simtime.Time     // when the current epoch began
	ev       reconfig.Event   // the current epoch's event
	tenant   int32            // its tenant slot, trace.NoTenant if none
	target   int64            // its target: tenant slot, device or port
	rescued  int              // work force-rescued at the grace deadline
	forced   bool             // the grace deadline passed
	orphaned bool             // twice the grace passed: committed undrained
	// sys is the System the plan is armed on; pump and poll are pumpNext
	// and pollDrain, bound once.
	sys        *System
	pump, poll func()
	// latent is the admittable tenants, with their parsed graphs.
	latent []latentTenant
	// unplugged marks hot-unplugged devices; nil until the plan is armed.
	unplugged []bool
}

// latentTenant is one Config.LatentTenants entry and its parsed graph.
type latentTenant struct {
	Tenant
	parsed *conflang.Config
}

// reconfigDrainPoll is the cadence at which an in-flight epoch re-evaluates
// its drain predicate. Polling exists only while a plan event is mid-epoch,
// so plan-free runs schedule no polls at all.
const reconfigDrainPoll = 10 * simtime.Microsecond

// parseLatent parses and trial-builds the latent tenants' graphs against
// throwaway state, so a broken latent config fails at construction instead
// of mid-run inside an admit epoch.
func (m *epochMachine) parseLatent(cfg *Config) error {
	for i, t := range cfg.LatentTenants {
		p, err := conflang.Parse(t.GraphConfig)
		if err != nil {
			return fmt.Errorf("core: latent tenant %d (%s): %w", i, t.Name, err)
		}
		cctx := &element.ConfigContext{
			NodeLocal:  element.NewNodeLocal(),
			NumPorts:   len(cfg.Topology.Ports),
			NumDevices: 1,
			Rand:       rng.New(1),
		}
		if _, err := graph.Build(p, cctx, cfg.CostModel, *cfg.GraphOpts); err != nil {
			return fmt.Errorf("core: latent tenant %d (%s): %w", i, t.Name, err)
		}
		m.latent = append(m.latent, latentTenant{t, p})
	}
	return nil
}

// arm schedules the first epoch. It runs after the fault plan is armed, so
// a fault and a reconfig epoch landing on the same tick apply fault-first
// (engine same-tick order is registration order); reconfig events
// themselves serialize in plan order through the pump.
func (m *epochMachine) arm(s *System) {
	if plan := s.cfg.Reconfig; plan != nil {
		evs := plan.Sorted()
		m.events = evs[:sort.Search(len(evs), func(i int) bool { return evs[i].At > s.stopTime })]
	}
	if len(m.events) == 0 {
		return
	}
	m.unplugged = make([]bool, len(s.devices))
	m.sys = s
	m.pump = m.pumpNext
	m.poll = m.pollDrain
	s.eng.At(m.events[0].At, m.pump)
}

// plugged reports whether device d is in service: false from an unplug
// epoch's begin to the matching plug's commit.
func (m *epochMachine) plugged(d int) bool {
	return m.unplugged == nil || !m.unplugged[d]
}

// pumpNext begins the next plan event's epoch if none is in flight. Epochs
// serialize: an event whose time arrives mid-epoch waits for the commit,
// which re-invokes the pump (plan order is preserved because events is
// sorted with stable ties).
func (m *epochMachine) pumpNext() {
	if m.active || m.next >= len(m.events) {
		return
	}
	ev := m.events[m.next]
	m.next++
	m.beginEpoch(m.sys, ev)
}

// beginEpoch opens one reconfiguration epoch: quiesce the affected lanes or
// device (stop new arrivals / submissions, leave in-flight work running),
// emit the begin event, and start evaluating the drain predicate.
func (m *epochMachine) beginEpoch(s *System, ev reconfig.Event) {
	now := s.eng.Now()
	m.active = true
	m.epoch++
	m.begin = now
	m.ev = ev
	m.rescued, m.forced, m.orphaned = 0, false, false

	m.tenant, m.target = trace.NoTenant, 0
	var payload int64
	switch ev.Kind {
	case reconfig.TenantAdmit:
		// The tenant's slot index is assigned at commit; it is always the
		// next slot, so the begin event can already name it.
		m.target = int64(len(s.tenants))
		payload = int64(math.Float64bits(ev.Share))
	case reconfig.TenantEvict:
		t := s.tenantIndex(ev.Tenant)
		m.tenant, m.target = int32(t), int64(t)
		// Quiesce: the tenant's arrivals stop now. Co-tenant splits are
		// untouched until commit re-normalizes them.
		s.shareFrac[t] = 0
		s.applyRate()
	case reconfig.ShareRetune:
		t := s.tenantIndex(ev.Tenant)
		m.tenant, m.target = int32(t), int64(t)
		payload = int64(math.Float64bits(ev.Share))
	case reconfig.DeviceUnplug:
		m.target = int64(ev.Device)
		// Quiesce: from the begin instant the socket's new offloads are
		// rescued on the CPU; queued tasks keep draining on the device.
		m.unplugged[ev.Device] = true
	case reconfig.DevicePlug:
		m.target = int64(ev.Device)
	case reconfig.QueueResize:
		m.target = int64(ev.Port)
		payload = int64(ev.Capacity)
	}
	s.cfg.Tracer.EmitT(now, trace.KindReconfigBegin, -1, m.tenant, ev.Kind.String(),
		int64(m.epoch), int64(ev.Kind), m.target, payload)
	s.wakeSocket(-1) // quiesced lanes, queues and devices
	m.pollDrain()
}

// pollDrain drives the drain phase: commit as soon as the predicate holds;
// at the DrainGrace deadline force-rescue the remaining work through the
// CPU-fallback path; at twice the grace declare the lane orphaned
// (invariant violation) and commit anyway so the run can finish and report.
func (m *epochMachine) pollDrain() {
	if !m.active {
		return
	}
	s := m.sys
	now := s.eng.Now()
	if m.drained(s, now) {
		m.commitEpoch(s)
		return
	}
	if grace := s.cfg.DrainGrace; grace > 0 {
		if !m.forced && now >= m.begin+grace {
			m.forced = true
			m.rescued += m.forceRescue(s)
		}
		if now >= m.begin+2*grace {
			m.orphaned = true
			s.cfg.Checker.OrphanLane(now, m.epoch, fmt.Sprintf(
				"epoch %d (%s) still undrained %v past begin (grace %v); committing with work stranded",
				m.epoch, m.ev.Kind, now-m.begin, grace))
			m.commitEpoch(s)
			return
		}
	}
	s.eng.After(reconfigDrainPoll, m.poll)
}

// drained evaluates the current epoch's drain predicate. Admit, retune, plug
// and resize epochs have nothing in flight to wait for and drain instantly.
func (m *epochMachine) drained(s *System, now simtime.Time) bool {
	switch m.ev.Kind {
	case reconfig.TenantEvict:
		for _, w := range s.workers {
			if !w.laneDrained(int(m.target), now) {
				return false
			}
		}
		return true
	case reconfig.DeviceUnplug:
		return s.devices[m.ev.Device].Queued() == 0
	default:
		return true
	}
}

// forceRescue evacuates the epoch's remaining in-flight work at the grace
// deadline: evict epochs route every outstanding task and pending aggregate
// of the tenant's lanes through the timed-out rescue path; unplug epochs
// abort the device's queue so its tasks fail back to their workers. Either
// way the work drains through the existing CPU-fallback path with its normal
// accounting — nothing is silently dropped.
func (m *epochMachine) forceRescue(s *System) int {
	rescued := 0
	switch m.ev.Kind {
	case reconfig.TenantEvict:
		for _, w := range s.workers {
			rescued += w.rescueLane(w.lanes[m.target])
		}
	case reconfig.DeviceUnplug:
		rescued += s.devices[m.ev.Device].AbortAll()
	}
	return rescued
}

// commitEpoch applies the epoch's change — re-split shares and queue maps,
// re-seat controllers and governors, seal or open per-tenant digests — emits
// the drain and commit trace events, verifies the epoch-boundary
// conservation identity, and resumes the datapath (including the next
// deferred plan event, if any).
func (m *epochMachine) commitEpoch(s *System) {
	now := s.eng.Now()
	ev := m.ev
	// Tenant epochs re-seat every worker; device and resize epochs count
	// what they re-seat.
	reseated := len(s.workers)
	switch ev.Kind {
	case reconfig.TenantAdmit:
		// The begin event named the slot; the commit names the tenant too.
		m.tenant = int32(m.admit(s, ev, now))
	case reconfig.TenantEvict:
		t := int(m.target)
		s.tstate[t].active = false
		s.tstate[t].evictedAt = now
		s.recomputeShares()
		s.applyRate()
	case reconfig.ShareRetune:
		s.tenants[m.target].Share = ev.Share
		s.recomputeShares()
		s.applyRate()
	case reconfig.DeviceUnplug:
		// With the socket's device gone its controllers collapse to the
		// CPU; the unplugged-rescue path covers aggregates already
		// annotated for offload.
		reseated = s.cells.release(s, s.cfg.Topology.Devices[ev.Device].Socket, 0)
	case reconfig.DevicePlug:
		m.unplugged[ev.Device] = false
		socket := s.cfg.Topology.Devices[ev.Device].Socket
		reseated = s.cells.release(s, socket, s.wCeiling(socket))
	case reconfig.QueueResize:
		reseated = 0
		for pid, p := range s.ports {
			if ev.Port != -1 && ev.Port != pid {
				continue
			}
			for _, q := range p.Rx {
				q.SetCapacity(now, ev.Capacity)
				reseated++
			}
		}
	}

	s.cfg.Tracer.Emit(now, trace.KindReconfigDrain, -1, ev.Kind.String(),
		int64(m.epoch), int64(now-m.begin), int64(m.rescued), b2i(m.forced))
	s.cfg.Tracer.EmitT(now, trace.KindReconfigCommit, -1, m.tenant, ev.Kind.String(),
		int64(m.epoch), int64(ev.Kind), m.target, int64(reseated))
	if ev.Kind == reconfig.TenantEvict {
		sealTenant := int(m.target)
		s.cfg.Tracer.SealTenantDigest(sealTenant)
		if !m.orphaned {
			// Epoch-boundary conservation: with the tenant's lanes and
			// queues drained, every packet its queues ever delivered has
			// met its disposition — the evicted tenant's mempool footprint
			// is provably returned.
			s.cfg.Checker.Conservation(now, invariant.CheckEpochConservation,
				fmt.Sprintf("epoch %d tenant %s: ", m.epoch, s.tenants[sealTenant].Name),
				s.tenantCounters(-1, sealTenant))
		}
	}
	m.active = false
	s.wakeSocket(-1) // re-seated lanes, queues and devices
	if m.next < len(m.events) {
		if next := m.events[m.next]; next.At <= now {
			// Its time passed while this epoch drained: begin immediately,
			// preserving plan order.
			m.pumpNext()
		} else {
			s.eng.At(next.At, m.pump)
		}
	}
}

// admit puts a latent tenant into service at admit commit and arms its
// control loops.
func (m *epochMachine) admit(s *System, ev reconfig.Event, now simtime.Time) int {
	for _, lt := range m.latent {
		if lt.Name != ev.Tenant {
			continue
		}
		tn := lt.Tenant
		if ev.Share > 0 {
			tn.Share = ev.Share
		}
		t, err := s.installTenant(tn, lt.parsed, now)
		if err != nil {
			// Latent graphs are trial-built at construction; failing here is
			// a programming bug, not a plan-authoring error.
			panic(fmt.Sprintf("core: admit %q: %v", ev.Tenant, err))
		}
		s.cells.start(s, t)
		return t
	}
	panic(fmt.Sprintf("core: admit of unknown latent tenant %q", ev.Tenant))
}

// tenantIndex resolves a plan tenant name to its slot. Plan validation
// guarantees evict/retune targets were admitted, so a miss is a bug.
func (s *System) tenantIndex(name string) int {
	for t := range s.tenants {
		if s.tenants[t].Name == name {
			return t
		}
	}
	panic(fmt.Sprintf("core: reconfig references unknown tenant %q", name))
}

// endOfRun reports, as orphaned lanes, an epoch still mid-flight when the
// engine stopped and plan events that never got their epoch: the handoff
// protocol lost track of work it promised to re-seat.
func (m *epochMachine) endOfRun(ck *invariant.Checker, now simtime.Time) {
	if m.active {
		ck.OrphanLane(now, m.epoch, fmt.Sprintf(
			"epoch %d (%s) still in progress at engine stop (begun %v)",
			m.epoch, m.ev.Kind, m.begin))
	}
	if m.next < len(m.events) {
		ck.OrphanLane(now, m.epoch, fmt.Sprintf(
			"%d reconfig event(s) scheduled inside the run never began an epoch (next: %s at %v)",
			len(m.events)-m.next, m.events[m.next].Kind, m.events[m.next].At))
	}
}
