package core

import (
	"errors"
	"fmt"

	"nba/internal/conflang"
	"nba/internal/element"
	"nba/internal/gpu"
	"nba/internal/integrity"
	"nba/internal/netio"
	"nba/internal/overload"
	"nba/internal/par"
	"nba/internal/rng"
	"nba/internal/simtime"
	"nba/internal/stats"
	"nba/internal/trace"
)

// System is one assembled NBA instance on the virtual clock. It hosts one or
// more tenant app graphs on the same workers, NIC queues and devices; the
// classic single-app configuration is the one-tenant special case and runs
// bit-identically to the pre-tenancy code.
type System struct {
	cfg Config
	eng *simtime.Engine

	// tenants is the installed tenant set, in slot order: the configured
	// Tenants (or the one implicit tenant, Name "", synthesized from
	// GraphConfig/Generator), then every tenant admitted mid-run.
	tenants   []Tenant
	shareFrac []float64 // tenant Share normalised to fractions

	ports   []*netio.Port
	devices []*gpu.Device // parallel to cfg.Topology.Devices
	// exec is the System executor: the devices' host core, which runs the
	// kernels of every accepted device task from submit until the worker
	// joins the task, and in its idle time fills the workers' RX stages
	// (DESIGN.md §13).
	exec       par.Executor
	workers    []*worker              // socket-major
	nodeLocals [][]*element.NodeLocal // [socket][tenant]: isolates shared element state per tenant
	// Tenant slots are grow-only: an evicted tenant's lanes and queues stay
	// in place (inactive) so tenant-major indexing never shifts; an admitted
	// tenant appends at len(tenants).
	tstate []tenantLifecycle

	// The control planes (DESIGN.md §3). Each owns its state and schedules
	// nothing unless configured; the last three are then their zero values.
	cells      controlCells // ALB loops and overload governors
	faults     faultApplier // Config.FaultPlan
	epochs     epochMachine // Config.Reconfig
	escalation escalation   // Config.Integrity

	stopTime  simtime.Time // warmup + duration
	measuring bool

	// rateFactor is the offered-load factor over the nominal rate that
	// fault-injected rate bursts set.
	rateFactor float64

	tailMarkBytes []uint64
	tailMarkTime  simtime.Time

	captured []netio.CapturedPacket

	// zone is the storage the workers' pools are carved from; a Run that
	// drains them hands it to the next System, so a System runs once.
	zone *zone
	ran  bool
}

// tenantLifecycle is one tenant slot's runtime state under the epoch
// protocol. Tenants present at construction are active from time 0; latent
// tenants only get a slot when admitted.
type tenantLifecycle struct {
	active    bool // false once evicted
	admitted  simtime.Time
	evictedAt simtime.Time
}

// observeRun, when non-nil, sees every run twice: with a nil report before
// NewSystem applies the defaults (it may attach a tracer), and with the
// report when Run returns. Only tests set it (export_test.go).
var observeRun func(cfg *Config, r *Report)

// NewSystem builds a system from the configuration.
func NewSystem(cfg Config) (*System, error) {
	if observeRun != nil {
		observeRun(&cfg, nil)
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &System{cfg: cfg, eng: simtime.NewEngine()}
	s.zone = takeZone(cfg.Topology.Sockets * cfg.WorkersPerSocket)
	s.exec.Prepare() // every run that polls starts it; Run allocates nothing for it
	// Sized up front (for the capture depths in use) so the capture buffer's
	// growth is not per-run garbage.
	s.captured = make([]netio.CapturedPacket, 0, min(cfg.CaptureTx, 1024))
	s.stopTime = cfg.Warmup + cfg.Duration
	if tr, ck := cfg.Tracer, cfg.Checker; tr != nil || ck != nil {
		s.eng.OnFire = func(at simtime.Time, fired uint64) {
			tr.Emit(at, trace.KindDispatch, -1, "", int64(fired), 0, 0, 0)
			ck.OnDispatch(at)
		}
	}
	s.tailMarkBytes = make([]uint64, len(cfg.Topology.Ports))
	s.rateFactor = 1

	// Latent tenants (admittable by the reconfig plan).
	if err := s.epochs.parseLatent(&cfg); err != nil {
		return nil, err
	}

	// The tenant-less machine: devices (one device thread per device, on a
	// dedicated core), queue-less ports, lane-less workers and empty
	// per-socket control-plane rows. installTenant fills all of them.
	top := cfg.Topology
	for i, d := range top.Devices {
		dev, err := gpu.New(d.Name, d.Kind, s.eng, cfg.CostModel, top.CoreFreqHz, cfg.WorkersPerSocket)
		if err != nil {
			return nil, fmt.Errorf("core: device %d: %w", i, err)
		}
		dev.Tracer = cfg.Tracer
		dev.TraceActor = int32(i)
		dev.Checker = cfg.Checker
		if cfg.Overload != nil {
			dev.QueueDepth = cfg.Overload.DeviceQueueDepth
		}
		dev.Watcher = s
		s.devices = append(s.devices, dev)
	}
	if cfg.Integrity != nil {
		s.escalation.tracker = integrity.NewTracker(len(s.devices))
	}
	for _, hw := range top.Ports {
		s.ports = append(s.ports, &netio.Port{HW: hw})
	}
	for socket := 0; socket < top.Sockets; socket++ {
		var dev *gpu.Device
		if di, ok := top.DeviceOnSocket(socket); ok {
			dev = s.devices[di]
		}
		for wi := 0; wi < cfg.WorkersPerSocket; wi++ {
			id := len(s.workers)
			s.workers = append(s.workers, newWorker(s, id, socket, wi, top.PortsOnSocket(socket), dev))
		}
	}
	s.nodeLocals = make([][]*element.NodeLocal, top.Sockets)
	s.cells = make(controlCells, top.Sockets)

	// Boot-time tenants go through the same install path a mid-run admit
	// commit uses; the classic single app is the one implicit tenant.
	boot := cfg.Tenants
	if len(boot) == 0 {
		boot = []Tenant{{GraphConfig: cfg.GraphConfig, Share: 1, RateScale: 1, Generator: cfg.Generator}}
	}
	for i, tn := range boot {
		p, err := conflang.Parse(tn.GraphConfig)
		if err != nil {
			return nil, fmt.Errorf("core: tenant %d (%s): %w", i, tn.Name, err)
		}
		if _, err := s.installTenant(tn, p, 0); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// installTenant puts one tenant into service in the next slot (tenant slots
// are grow-only), at construction (now = 0) and at an admit commit alike:
// NodeLocal row → tenant-major RX queues → one lane per worker → a
// controller and governor per socket → a per-tenant trace digest → the share
// re-split. Because there is no other way to get a tenant, a lane admitted
// mid-run is indistinguishable from a construction-time one. The tenant's
// control loops are armed separately (controlCells.start) — at Run start for
// boot-time tenants, at once for an admitted one.
func (s *System) installTenant(tn Tenant, parsed *conflang.Config, now simtime.Time) (int, error) {
	t := len(s.tenants)
	s.tenants = append(s.tenants, tn)
	s.tstate = append(s.tstate, tenantLifecycle{active: true, admitted: now})
	s.shareFrac = append(s.shareFrac, 0)
	for socket := range s.nodeLocals {
		s.nodeLocals[socket] = append(s.nodeLocals[socket], element.NewNodeLocal())
	}
	// Queues before lanes: the tenant-major append puts the new tenant's
	// queue for local worker wi at index t*WorkersPerSocket+wi on every
	// port, exactly where buildLane looks. Each is born at zero rate; the
	// re-split below gives it 1/WorkersPerSocket of the tenant's share of
	// the port rate (RSS within a tenant's queue set).
	for _, port := range s.ports {
		for wi := 0; wi < s.cfg.WorkersPerSocket; wi++ {
			q := port.AddQueue(now, int32(t), tn.Generator, s.cfg.Topology.RxQueueCapacity)
			q.SetStop(s.stopTime)
			q.Tracer = s.cfg.Tracer
			q.Checker = s.cfg.Checker
		}
	}
	for _, w := range s.workers {
		ln, err := w.buildLane(t, parsed)
		if err != nil {
			return t, err
		}
		w.lanes = append(w.lanes, ln)
	}
	// One control cell per socket, so the tenant balances and degrades
	// (trim → bias → shed) on its own signals.
	s.cells.install(s, t)
	if len(s.cfg.Tenants) > 0 {
		// Per-tenant trace digests exist only for explicit tenant
		// configurations; a classic single-app run keeps an unarmed tracer.
		s.cfg.Tracer.EnsureTenantDigests(len(s.tenants))
	}
	s.recomputeShares()
	s.applyRate()
	return t, nil
}

// overloadLevel returns a tenant's current governor level on a socket,
// LevelNormal when overload control is disabled.
func (s *System) overloadLevel(socket int, tenant int32) overload.Level {
	return s.cells[socket][tenant].gov.Level()
}

// applyRate pushes the current composed offered load (nominal rate × burst
// factor, split by tenant share × rate-scale under each tenant's generator
// frame mix) to every queue. Queues flapped down by fault injection keep
// receiving their share — the NIC's RSS hash does not know a ring died —
// and shed it by head-drop accounting once the ring fills (see
// netio.RxQueue.SetDown); re-steering load away from a dead queue would
// silently hide the loss.
func (s *System) applyRate() {
	now := s.eng.Now()
	nq := float64(s.cfg.WorkersPerSocket)
	for _, p := range s.ports {
		for _, q := range p.Rx {
			t := int(q.Tenant)
			pps := netio.OfferedPPS(s.cfg.OfferedBpsPerPort*s.rateFactor*s.shareFrac[t]*s.tenants[t].RateScale, q.Generator())
			q.SetRate(now, pps/nq)
		}
	}
}

// wakeSocket unparks the socket's workers (socket < 0: every worker) after
// an event that can change what their next pass sees.
func (s *System) wakeSocket(socket int) {
	for _, w := range s.workers {
		if socket < 0 || w.socket == socket {
			w.unpark()
		}
	}
}

// DeviceChanged implements gpu.Watcher: a device's queue or health changed.
// A finished task can lift any of the socket's workers' backpressure (a
// full device queue), not only its submitter's.
func (s *System) DeviceChanged(d *gpu.Device) {
	s.wakeSocket(s.cfg.Topology.Devices[d.TraceActor].Socket)
}

// Run executes the configured workload and returns the measurement report.
// A System runs once: a second call returns an error.
func (s *System) Run() (*Report, error) {
	if s.ran {
		return nil, errors.New("core: System.Run called twice; build a new System per run")
	}
	s.ran = true
	// Stagger worker start times by one cycle each so their first events
	// interleave deterministically.
	for i, w := range s.workers {
		s.eng.At(simtime.Time(i), func() { w.iterate() })
	}

	// Measurement window bracketing: Mark at the end of warmup, End when
	// arrivals stop, so post-stop queue draining is excluded from rates.
	s.eng.At(s.cfg.Warmup, func() {
		s.measuring = true
		for _, p := range s.ports {
			p.TxM.Mark(s.eng.Now())
		}
	})
	s.eng.At(s.stopTime, func() {
		for _, p := range s.ports {
			p.TxM.End(s.eng.Now())
		}
	})
	// Tail window: the last quarter of the measured duration, reported
	// separately so adaptive runs can be judged by their converged state
	// rather than the convergence transient.
	tailStart := s.stopTime - s.cfg.Duration/4
	if tailStart > s.cfg.Warmup {
		s.eng.At(tailStart, func() {
			for i, p := range s.ports {
				s.tailMarkBytes[i] = p.TxM.Counter.WireBytes
			}
			s.tailMarkTime = s.eng.Now()
		})
	}

	// Workload (generator) changes: swap the traffic mix, preserving the
	// offered wire rate under the new mean frame size. Config validation
	// restricts these to single-tenant runs, so tenant 0 owns all queues.
	for _, gc := range s.cfg.GeneratorChanges {
		if gc.At > s.stopTime || gc.Generator == nil {
			continue
		}
		s.eng.At(gc.At, func() {
			for _, p := range s.ports {
				for _, q := range p.Rx {
					q.SetGenerator(gc.Generator)
				}
			}
			s.applyRate()
		})
	}

	// The control planes, in the order that fixes same-tick ties (engine
	// same-tick order is registration order): the fault timeline, the first
	// reconfig epoch, then the ALB and governor loops.
	s.faults.arm(s)
	s.epochs.arm(s)
	s.cells.start(s, 0)

	// Drain watchdog: after arrivals stop, the run should drain within the
	// grace window. A worker that can never retire (a hung device with the
	// stall watchdog disabled, say) would otherwise idle-poll forever and
	// Run would never return. Armed only when a checker is attached or a
	// grace is set explicitly, so untracked runs keep their exact event
	// timeline (and their golden trace digests).
	if grace := s.cfg.DrainGrace; grace > 0 {
		s.eng.At(s.stopTime+grace, func() {
			if stuck := s.stuckWorkers(); stuck > 0 {
				s.cfg.Checker.StuckDrain(s.eng.Now(), stuck)
				s.eng.Stop()
			}
		})
	}

	s.eng.Run()
	// After a watchdog stop, tasks never joined may still be queued: their
	// kernels write pool packets, so they finish before the report and
	// before the zone can pass to another System.
	s.exec.Close()

	r := s.report()
	s.zone.release(s.workers)
	if observeRun != nil {
		observeRun(&s.cfg, r)
	}
	return r, nil
}

// recomputeShares re-normalizes the share split over the active tenants
// (evicted slots pin to zero) and re-seats every worker's WRR rotation.
func (s *System) recomputeShares() {
	var sum float64
	for t := range s.tenants {
		if s.tstate[t].active {
			sum += s.tenants[t].Share
		}
	}
	for t := range s.tenants {
		if s.tstate[t].active && sum > 0 {
			s.shareFrac[t] = s.tenants[t].Share / sum
		} else {
			s.shareFrac[t] = 0
		}
	}
	for _, w := range s.workers {
		w.wrr.SetShares(s.shareFrac)
	}
}

// tenantCounters sums one tenant's lane accounting views (cumulative over
// the run so far) on one socket, or on every socket when socket < 0.
func (s *System) tenantCounters(socket, tenant int) stats.Counters {
	var c stats.Counters
	for _, w := range s.workers {
		if socket < 0 || w.socket == socket {
			c.Add(w.lanes[tenant].counters())
		}
	}
	return c
}

// newLaneRand derives a deterministic PRNG per (worker, tenant) lane. The
// tenant-0 stream is identical to the pre-tenancy per-worker stream, which
// single-tenant digest stability depends on.
func (s *System) newLaneRand(id int, tenant int32) *rng.Rand {
	return rng.New(s.cfg.Seed*0x9E3779B97F4A7C15 + uint64(id) + 1 + uint64(tenant)*0x9D2C5680F4A7C159)
}

// newSentinelRand derives the per-worker sentinel sampling stream. The salt
// keeps it disjoint from every lane stream, so arming the sentinel never
// perturbs element-level randomness.
func (s *System) newSentinelRand(id int) *rng.Rand {
	return rng.New((s.cfg.Seed*0x9E3779B97F4A7C15 ^ 0xC2B2AE3D27D4EB4F) + uint64(id) + 1)
}
