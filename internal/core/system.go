package core

import (
	"errors"
	"fmt"
	"math"

	"nba/internal/conflang"
	"nba/internal/element"
	"nba/internal/fault"
	"nba/internal/gpu"
	"nba/internal/graph"
	"nba/internal/integrity"
	"nba/internal/invariant"
	"nba/internal/lb"
	"nba/internal/netio"
	"nba/internal/overload"
	"nba/internal/par"
	"nba/internal/reconfig"
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
	// controllers / governors are per (socket, tenant): each tenant gets
	// its own ALB control loop and degradation governor so one tenant's
	// congestion escalates trim → bias → shed for that tenant alone.
	controllers [][]*lb.Controller
	governors   [][]*overload.Governor // empty when Overload is nil

	// Runtime-reconfiguration state. Tenant slots are grow-only: an evicted
	// tenant's lanes and queues stay in place (inactive) so tenant-major
	// indexing never shifts; an admitted tenant appends at len(tenants).
	tstate       []tenantLifecycle
	devPlugged   []bool // parallel to devices; all true without a plan
	latentIdx    map[string]int
	latentParsed []*conflang.Config
	rcEvents     []reconfig.Event // sorted, At <= stopTime
	rcNext       int
	rcActive     bool
	rcEpoch      int
	rcBegin      simtime.Time
	rcEv         reconfig.Event
	rcRescued    int
	rcForced     bool
	rcOrphaned   bool
	rcPollFn     func()

	// Integrity escalation state (nil/zero when cfg.Integrity is nil).
	integrityTracker *integrity.Tracker
	mismatchSeen     bool
	firstMismatchAt  simtime.Time

	stopTime  simtime.Time // warmup + duration
	measuring bool

	// Current offered-load state, composed by generator changes and
	// fault-injected rate bursts (factor over the nominal rate).
	curGens    []netio.Generator // per tenant
	rateFactor float64

	tailMarkBytes []uint64
	tailMarkTime  simtime.Time
	tailEndBytes  []uint64

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
	active    bool
	admitted  simtime.Time
	evicted   bool
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
	s.zone = takeZone(cfg.Topology.Sockets*cfg.WorkersPerSocket, cfg.PacketPoolPerWorker)
	s.exec.Prepare() // every run that polls starts it; Run allocates nothing for it
	// Sized up front (for the capture depths in use) so the capture buffer's
	// growth is not per-run garbage.
	s.captured = make([]netio.CapturedPacket, 0, min(cfg.CaptureTx, 1024))
	s.stopTime = cfg.Warmup + cfg.Duration
	if tr, ck := cfg.Tracer, cfg.Checker; tr != nil || ck != nil {
		s.eng.OnFire = func(at simtime.Time, fired uint64) {
			if tr != nil {
				tr.Emit(at, trace.KindDispatch, -1, "", int64(fired), 0, 0, 0)
			}
			ck.OnDispatch(at)
		}
	}
	s.tailMarkBytes = make([]uint64, len(cfg.Topology.Ports))
	s.tailEndBytes = make([]uint64, len(cfg.Topology.Ports))
	s.rateFactor = 1

	// Latent tenants (admittable by the reconfig plan): parse and trial-build
	// their graphs now, against throwaway state, so a broken latent config
	// fails at construction instead of mid-run inside an admit epoch.
	s.latentIdx = make(map[string]int, len(cfg.LatentTenants))
	for i, t := range cfg.LatentTenants {
		p, err := conflang.Parse(t.GraphConfig)
		if err != nil {
			return nil, fmt.Errorf("core: latent tenant %d (%s): %w", i, t.Name, err)
		}
		cctx := &element.ConfigContext{
			NodeLocal:  element.NewNodeLocal(),
			NumPorts:   len(cfg.Topology.Ports),
			NumDevices: 1,
			Rand:       rng.New(1),
		}
		if _, err := graph.Build(p, cctx, cfg.CostModel, *cfg.GraphOpts); err != nil {
			return nil, fmt.Errorf("core: latent tenant %d (%s): %w", i, t.Name, err)
		}
		s.latentParsed = append(s.latentParsed, p)
		s.latentIdx[t.Name] = i
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
	s.devPlugged = make([]bool, len(s.devices))
	for i := range s.devPlugged {
		s.devPlugged[i] = true
	}
	if cfg.Integrity != nil {
		s.integrityTracker = integrity.NewTracker(len(s.devices))
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
	s.controllers = make([][]*lb.Controller, top.Sockets)
	if cfg.Overload != nil {
		s.governors = make([][]*overload.Governor, top.Sockets)
	}

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
// control loops are armed separately (startControlLoops) — at Run start for
// boot-time tenants, at once for an admitted one.
func (s *System) installTenant(tn Tenant, parsed *conflang.Config, now simtime.Time) (int, error) {
	t := len(s.tenants)
	s.tenants = append(s.tenants, tn)
	s.tstate = append(s.tstate, tenantLifecycle{active: true, admitted: now})
	s.shareFrac = append(s.shareFrac, 0)
	s.curGens = append(s.curGens, tn.Generator)
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
	// One adaptive controller per socket whose lanes created shared LB state
	// (LoadBalance elements do, during Configure), and one governor per
	// socket when overload control is armed, so the tenant degrades (trim →
	// bias → shed) on its own signals.
	for socket := range s.controllers {
		var ctl *lb.Controller
		if st, ok := s.nodeLocals[socket][t].Get(lb.StateKey).(*lb.State); ok && st.AdaptiveUsers > 0 {
			ctl = lb.NewController(st)
			ctl.Bound = s.cfg.ALBLatencyBound
			ctl.Tracer = s.cfg.Tracer
			ctl.TraceNow = s.eng.Now
			ctl.TraceActor = int32(socket)
			ctl.TraceTenant = int32(t)
			ctl.Checker = s.cfg.Checker
			ctl.SetWBounds(0, s.wCeiling(socket))
		}
		s.controllers[socket] = append(s.controllers[socket], ctl)
	}
	for socket := range s.governors {
		s.governors[socket] = append(s.governors[socket], overload.NewGovernor())
	}
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
	if socket >= len(s.governors) {
		return overload.LevelNormal
	}
	return s.governors[socket][tenant].Level()
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
			pps := netio.OfferedPPS(s.cfg.OfferedBpsPerPort*s.rateFactor*s.shareFrac[t]*s.tenants[t].RateScale, s.curGens[t])
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

// applyFault executes one fault-plan event and emits its trace record.
func (s *System) applyFault(ev fault.Event) {
	defer s.wakeSocket(-1)
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
		for qi, q := range s.ports[ev.Port].Rx {
			if ev.Queue == -1 || ev.Queue == qi {
				q.SetDown(ev.Kind == fault.RxQueueDown)
			}
		}
	case fault.RateBurst:
		s.rateFactor = ev.RateFactor
		s.applyRate()
	case fault.DeviceCorrupt:
		// The byte-flip stream is seeded from (run seed, event time, device),
		// so the corruption pattern is part of the run's identity: replaying
		// the same plan under the same seed corrupts the same bytes.
		s.devices[ev.Device].SetCorrupt(ev.CorruptProb, ev.FlipPattern, s.newCorruptRand(ev))
	case fault.CorruptRecover:
		s.devices[ev.Device].ClearCorrupt()
	}
	kind := trace.KindFaultInject
	if ev.Kind.IsRecovery() {
		kind = trace.KindFaultRecover
	}
	target, queue := int64(ev.Device), int64(0)
	switch ev.Kind {
	case fault.RxQueueDown, fault.RxQueueUp:
		target, queue = int64(ev.Port), int64(ev.Queue)
	case fault.RateBurst:
		target = int64(math.Float64bits(ev.RateFactor))
	case fault.DeviceCorrupt:
		queue = int64(math.Float64bits(ev.CorruptProb))
	}
	s.cfg.Tracer.Emit(s.eng.Now(), kind, -1, ev.Kind.String(), int64(ev.Kind), target, queue, 0)
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
		w := w
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
		for i, p := range s.ports {
			p.TxM.End(s.eng.Now())
			s.tailEndBytes[i] = p.TxM.Counter.WireBytes
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
		gc := gc
		if gc.At > s.stopTime || gc.Generator == nil {
			continue
		}
		s.eng.At(gc.At, func() {
			s.curGens[0] = gc.Generator
			for _, p := range s.ports {
				for _, q := range p.Rx {
					q.SetGenerator(gc.Generator)
				}
			}
			s.applyRate()
		})
	}

	// Scripted fault timeline. Sorted() fixes the application order for
	// same-time events (stable in plan order), and the engine's scheduling
	// sequence breaks ties against other events deterministically.
	if plan := s.cfg.FaultPlan; plan != nil {
		for _, ev := range plan.Sorted() {
			ev := ev
			s.eng.At(ev.At, func() { s.applyFault(ev) })
		}
	}

	// Scripted reconfiguration timeline. Registered after the fault plan so
	// a fault and a reconfig epoch landing on the same tick apply
	// fault-first (engine same-tick order is registration order); reconfig
	// events themselves serialize in plan order through the epoch pump. A
	// nil or empty plan schedules nothing: the event timeline — and every
	// golden digest — is byte-identical to an unconfigured run.
	if plan := s.cfg.Reconfig; plan != nil && len(plan.Events) > 0 {
		for _, ev := range plan.Sorted() {
			if ev.At > s.stopTime {
				continue
			}
			s.rcEvents = append(s.rcEvents, ev)
		}
		if len(s.rcEvents) > 0 {
			s.rcPollFn = s.pollEpochDrain
			s.eng.At(s.rcEvents[0].At, s.pumpReconfig)
		}
	}

	s.startControlLoops(0)

	// Drain watchdog: after arrivals stop, the run should drain within the
	// grace window. A worker that can never retire (a hung device with the
	// stall watchdog disabled, say) would otherwise idle-poll forever and
	// Run would never return. Armed only when a checker is attached or a
	// grace is set explicitly, so untracked runs keep their exact event
	// timeline (and their golden trace digests).
	if grace := s.cfg.DrainGrace; grace > 0 {
		s.eng.At(s.stopTime+grace, func() {
			stuck := 0
			for _, w := range s.workers {
				if !w.stopped {
					stuck++
				}
			}
			if stuck == 0 {
				return
			}
			s.cfg.Checker.StuckDrain(s.eng.Now(), stuck)
			s.eng.Stop()
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

// startControlLoops arms the ALB and governor loops of tenants [from,
// len(tenants)): every boot-time tenant at Run start, the new tenant at an
// admit commit. Socket-major, tenant-minor registration — ALB loops first,
// governor loops after, the latter only when overload control is armed —
// fixes the same-tick firing order, so runs without those planes keep their
// exact event timeline (and their golden trace digests).
func (s *System) startControlLoops(from int) {
	for socket := range s.controllers {
		for tenant := from; tenant < len(s.tenants); tenant++ {
			if ctl := s.controllers[socket][tenant]; ctl != nil {
				s.startALBLoops(socket, tenant, ctl)
			}
		}
	}
	for socket := range s.governors {
		for tenant := from; tenant < len(s.tenants); tenant++ {
			var prev stats.Counters
			s.tenantLoop(tenant, governorWindow, func() {
				s.governorTick(socket, tenant, &prev)
			})
		}
	}
}

// tenantLoop runs fn every period for as long as the tenant is in service
// and arrivals continue: it stops re-arming once the tenant is evicted
// (boot-time tenants of plan-free runs are active throughout) or the run
// reaches stopTime.
func (s *System) tenantLoop(tenant int, period simtime.Time, fn func()) {
	var tick func()
	tick = func() {
		if !s.tstate[tenant].active {
			return
		}
		fn()
		if s.eng.Now() < s.stopTime {
			s.eng.After(period, tick)
		}
	}
	s.eng.After(period, tick)
}

// startALBLoops registers one (socket, tenant) controller's loops: observe
// the tenant's socket throughput, and update its shared W.
func (s *System) startALBLoops(socket, tenant int, ctl *lb.Controller) {
	// What the previous firing of each loop saw.
	var last struct {
		pkts, fails uint64
		at          simtime.Time
	}
	s.tenantLoop(tenant, s.cfg.ALBObserve, func() {
		now := s.eng.Now()
		pkts := s.tenantCounters(socket, tenant).TxPackets
		if now > last.at {
			ctl.Observe(float64(pkts-last.pkts) / (now - last.at).Seconds())
		}
		last.pkts, last.at = pkts, now
	})
	s.tenantLoop(tenant, s.cfg.ALBUpdate, func() {
		// Completion failures since the last step steer the controller:
		// a failing device forces W toward the CPU regardless of the
		// throughput signal.
		c := s.tenantCounters(socket, tenant)
		fails := c.FailedTasks + c.TimedOutTasks
		ctl.NoteTaskFailures(int(fails - last.fails))
		last.fails = fails
		if ctl.Bound > 0 {
			ctl.UpdateWithLatency(s.tenantRecentP99(socket, tenant))
		} else {
			ctl.Update()
		}
	})
}

// reconfigDrainPoll is the cadence at which an in-flight epoch re-evaluates
// its drain predicate. Polling exists only while a plan event is mid-epoch,
// so plan-free runs schedule no polls at all.
const reconfigDrainPoll = 10 * simtime.Microsecond

// pumpReconfig begins the next plan event's epoch if none is in flight.
// Epochs serialize: an event whose time arrives mid-epoch waits for the
// commit, which re-invokes the pump (plan order is preserved because
// rcEvents is sorted with stable ties).
func (s *System) pumpReconfig() {
	if s.rcActive || s.rcNext >= len(s.rcEvents) {
		return
	}
	ev := s.rcEvents[s.rcNext]
	s.rcNext++
	s.beginEpoch(ev)
}

// beginEpoch opens one reconfiguration epoch: quiesce the affected lanes or
// device (stop new arrivals / submissions, leave in-flight work running),
// emit the begin event, and start evaluating the drain predicate.
func (s *System) beginEpoch(ev reconfig.Event) {
	now := s.eng.Now()
	s.rcActive = true
	s.rcEpoch++
	s.rcBegin = now
	s.rcEv = ev
	s.rcRescued, s.rcForced, s.rcOrphaned = 0, false, false

	tenant := trace.NoTenant
	var target, payload int64
	switch ev.Kind {
	case reconfig.TenantAdmit:
		// The tenant's slot index is assigned at commit; it is always the
		// next slot, so the begin event can already name it.
		target = int64(len(s.tenants))
		payload = int64(math.Float64bits(ev.Share))
	case reconfig.TenantEvict:
		t := s.tenantIndex(ev.Tenant)
		tenant, target = int32(t), int64(t)
		// Quiesce: the tenant's arrivals stop now. Co-tenant splits are
		// untouched until commit re-normalizes them.
		s.shareFrac[t] = 0
		s.applyRate()
	case reconfig.ShareRetune:
		t := s.tenantIndex(ev.Tenant)
		tenant, target = int32(t), int64(t)
		payload = int64(math.Float64bits(ev.Share))
	case reconfig.DeviceUnplug:
		target = int64(ev.Device)
		// Quiesce: from the begin instant the socket's new offloads are
		// rescued on the CPU; queued tasks keep draining on the device.
		s.devPlugged[ev.Device] = false
	case reconfig.DevicePlug:
		target = int64(ev.Device)
	case reconfig.QueueResize:
		target = int64(ev.Port)
		payload = int64(ev.Capacity)
	}
	s.cfg.Tracer.EmitT(now, trace.KindReconfigBegin, -1, tenant, ev.Kind.String(),
		int64(s.rcEpoch), int64(ev.Kind), target, payload)
	s.wakeSocket(-1) // quiesced lanes, queues and devices
	s.pollEpochDrain()
}

// pollEpochDrain drives the drain phase: commit as soon as the predicate
// holds; at the DrainGrace deadline force-rescue the remaining work through
// the CPU-fallback path; at twice the grace declare the lane orphaned
// (invariant violation) and commit anyway so the run can finish and report.
func (s *System) pollEpochDrain() {
	if !s.rcActive {
		return
	}
	now := s.eng.Now()
	if s.epochDrained(now) {
		s.commitEpoch()
		return
	}
	if grace := s.cfg.DrainGrace; grace > 0 {
		if !s.rcForced && now >= s.rcBegin+grace {
			s.rcForced = true
			s.rcRescued += s.forceRescue()
		}
		if now >= s.rcBegin+2*grace {
			s.rcOrphaned = true
			s.cfg.Checker.OrphanLane(now, s.rcEpoch, fmt.Sprintf(
				"epoch %d (%s) still undrained %v past begin (grace %v); committing with work stranded",
				s.rcEpoch, s.rcEv.Kind, now-s.rcBegin, grace))
			s.commitEpoch()
			return
		}
	}
	s.eng.After(reconfigDrainPoll, s.rcPollFn)
}

// epochDrained evaluates the current epoch's drain predicate. Admit, retune,
// plug and resize epochs have nothing in flight to wait for and drain
// instantly.
func (s *System) epochDrained(now simtime.Time) bool {
	switch s.rcEv.Kind {
	case reconfig.TenantEvict:
		t := s.tenantIndex(s.rcEv.Tenant)
		for _, w := range s.workers {
			if !w.laneDrained(t, now) {
				return false
			}
		}
		return true
	case reconfig.DeviceUnplug:
		return s.devices[s.rcEv.Device].Queued() == 0
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
func (s *System) forceRescue() int {
	rescued := 0
	switch s.rcEv.Kind {
	case reconfig.TenantEvict:
		t := s.tenantIndex(s.rcEv.Tenant)
		for _, w := range s.workers {
			rescued += w.rescueLane(w.lanes[t])
		}
	case reconfig.DeviceUnplug:
		rescued += s.devices[s.rcEv.Device].AbortAll()
	}
	return rescued
}

// commitEpoch applies the epoch's change — re-split shares and queue maps,
// re-seat controllers and governors, seal or open per-tenant digests — emits
// the drain and commit trace events, verifies the epoch-boundary
// conservation identity, and resumes the datapath (including the next
// deferred plan event, if any).
func (s *System) commitEpoch() {
	now := s.eng.Now()
	ev := s.rcEv
	tenant := trace.NoTenant
	var target int64
	reseated := 0
	sealTenant := -1
	switch ev.Kind {
	case reconfig.TenantAdmit:
		t := s.admitTenant(ev, now)
		tenant, target = int32(t), int64(t)
		reseated = len(s.workers)
	case reconfig.TenantEvict:
		t := s.tenantIndex(ev.Tenant)
		tenant, target = int32(t), int64(t)
		s.tstate[t].active = false
		s.tstate[t].evicted = true
		s.tstate[t].evictedAt = now
		for _, w := range s.workers {
			w.lanes[t].active = false
		}
		reseated = len(s.workers)
		s.recomputeShares()
		s.applyRate()
		sealTenant = t
	case reconfig.ShareRetune:
		t := s.tenantIndex(ev.Tenant)
		tenant, target = int32(t), int64(t)
		s.tenants[t].Share = ev.Share
		reseated = len(s.workers)
		s.recomputeShares()
		s.applyRate()
	case reconfig.DeviceUnplug:
		target = int64(ev.Device)
		// With the socket's device gone its controllers collapse to the
		// CPU; the unplugged-rescue path covers aggregates already
		// annotated for offload.
		reseated = s.releaseWBounds(s.cfg.Topology.Devices[ev.Device].Socket, 0)
	case reconfig.DevicePlug:
		target = int64(ev.Device)
		s.devPlugged[ev.Device] = true
		socket := s.cfg.Topology.Devices[ev.Device].Socket
		reseated = s.releaseWBounds(socket, s.wCeiling(socket))
	case reconfig.QueueResize:
		target = int64(ev.Port)
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

	var forced int64
	if s.rcForced {
		forced = 1
	}
	s.cfg.Tracer.Emit(now, trace.KindReconfigDrain, -1, ev.Kind.String(),
		int64(s.rcEpoch), int64(now-s.rcBegin), int64(s.rcRescued), forced)
	s.cfg.Tracer.EmitT(now, trace.KindReconfigCommit, -1, tenant, ev.Kind.String(),
		int64(s.rcEpoch), int64(ev.Kind), target, int64(reseated))
	if sealTenant >= 0 {
		s.cfg.Tracer.SealTenantDigest(sealTenant)
		if !s.rcOrphaned {
			// Epoch-boundary conservation: with the tenant's lanes and
			// queues drained, every packet its queues ever delivered has
			// met its disposition — the evicted tenant's mempool footprint
			// is provably returned.
			s.cfg.Checker.Conservation(now, invariant.CheckEpochConservation,
				fmt.Sprintf("epoch %d tenant %s: ", s.rcEpoch, s.tenants[sealTenant].Name),
				s.tenantCounters(-1, sealTenant))
		}
	}
	s.rcActive = false
	s.wakeSocket(-1) // re-seated lanes, queues and devices
	if s.rcNext < len(s.rcEvents) {
		if next := s.rcEvents[s.rcNext]; next.At <= now {
			// Its time passed while this epoch drained: begin immediately,
			// preserving plan order.
			s.pumpReconfig()
		} else {
			s.eng.At(next.At, s.pumpReconfig)
		}
	}
}

// admitTenant puts a latent tenant into service at admit commit and arms
// its control loops.
func (s *System) admitTenant(ev reconfig.Event, now simtime.Time) int {
	li, ok := s.latentIdx[ev.Tenant]
	if !ok {
		panic(fmt.Sprintf("core: admit of unknown latent tenant %q", ev.Tenant))
	}
	tn := s.cfg.LatentTenants[li]
	if ev.Share > 0 {
		tn.Share = ev.Share
	}
	t, err := s.installTenant(tn, s.latentParsed[li], now)
	if err != nil {
		// Latent graphs are trial-built at construction; failing here is
		// a programming bug, not a plan-authoring error.
		panic(fmt.Sprintf("core: admit %q: %v", ev.Tenant, err))
	}
	s.startControlLoops(t)
	return t
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

// wCeiling is the weight ceiling a controller on socket is released to: at
// a tenant's install, at a device plug, at an integrity probe and when the
// governor leaves Bias. It is 1 even when the socket's device is
// unplugged, so those paths re-open the balancer toward the missing device
// and each batch it sends there is rescued on the CPU
// (TestAdmitAfterUnplugKeepsBalancerOnCPU, skipped). Returning 0 there
// changes the output of chaos sweeps that unplug, so it waits for a
// re-golden.
func (s *System) wCeiling(socket int) float64 { return 1 }

// releaseWBounds resets the weight bounds of every active tenant's
// controller on socket to [0, hi], dropping any bias or demotion ratchet,
// and returns how many it reset.
func (s *System) releaseWBounds(socket int, hi float64) int {
	n := 0
	for t, ctl := range s.controllers[socket] {
		if ctl != nil && s.tstate[t].active {
			ctl.SetWBounds(0, hi)
			n++
		}
	}
	return n
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

// The overload governor's constants. A 250 µs window is longer than one
// IPsec offload round trip (≈ 190 µs), so a device saturated for a whole
// window is backed up rather than mid-task, and two saturated windows
// (overload's stepDown) react within a millisecond. Trim halves the
// aggregation age; each saturated window at Bias moves a weight bound by
// 0.1, so a bound crosses the whole [0, 1] range in ten windows.
const (
	governorWindow simtime.Time = 250 * simtime.Microsecond
	trimAgeScale   float64      = 0.5
	biasStep       float64      = 0.1
)

// governorTick runs one overload-governor window for a (socket, tenant):
// observe saturation (bounded device queue full or backlogged = device-side,
// shared across tenants; that tenant's RX drops or sheds still accruing =
// CPU-side) and apply the resulting degradation level to the tenant alone.
// prev is the tenant's accounting table as of the previous window.
func (s *System) governorTick(socket, tenant int, prev *stats.Counters) {
	g := s.governors[socket][tenant]
	now := s.eng.Now()

	devSat := false
	cm := s.cfg.CostModel
	// A hot-unplugged device is no longer a saturation signal.
	if di, ok := s.cfg.Topology.DeviceOnSocket(socket); ok && s.devPlugged[di] {
		d := s.devices[di]
		devSat = d.Saturated() || (cm.MaxDeviceBacklog > 0 && d.Backlog() > cm.MaxDeviceBacklog)
	}
	cur := s.tenantCounters(socket, tenant)
	cpuSat := cur.RxDropped > prev.RxDropped ||
		cur.ShedPackets+cur.RejectedTasks > prev.ShedPackets+prev.RejectedTasks
	*prev = cur

	old := g.Level()
	lvl, changed := g.Observe(devSat || cpuSat)
	if changed {
		// Trim: shrink the offload aggregation age so the tenant's packets
		// stop maturing behind a congested device; restore it on recovery
		// below Trim.
		scale := 1.0
		if lvl >= overload.LevelTrim {
			scale = trimAgeScale
		}
		for _, w := range s.workers {
			if w.socket == socket {
				w.lanes[tenant].agg.AgeScale = scale
			}
		}
		// Leaving Bias on the way up releases the ALB weight bounds.
		if lvl < overload.LevelBias && old >= overload.LevelBias {
			if ctl := s.controllers[socket][tenant]; ctl != nil {
				hi := s.wCeiling(socket)
				ctl.SetWBounds(0, hi)
				s.emitBias(socket, tenant, 0, hi, devSat, cpuSat)
			}
		}
		s.cfg.Tracer.EmitT(now, trace.KindOverloadLevel, int32(socket), int32(tenant), lvl.String(),
			int64(lvl), int64(old), b2i(devSat), b2i(cpuSat))
		s.wakeSocket(socket)
	}
	// Bias ratchet: each saturated window at LevelBias and above with an
	// unambiguous direction moves the weight bound one step toward the
	// uncongested processor (device congested → ceiling down toward the CPU,
	// CPU congested → floor up toward the device).
	if lvl >= overload.LevelBias && devSat != cpuSat {
		if ctl := s.controllers[socket][tenant]; ctl != nil {
			lo, hi := ctl.WBounds()
			if devSat {
				hi = math.Max(lo, hi-biasStep)
			} else {
				lo = math.Min(hi, lo+biasStep)
			}
			ctl.SetWBounds(lo, hi)
			s.emitBias(socket, tenant, lo, hi, devSat, cpuSat)
		}
	}
}

// noteIntegrity folds one sentinel verification outcome into the per-device
// corruption tracker and applies whatever escalation it triggers. Called from
// the worker's completion path, on the serial engine.
func (s *System) noteIntegrity(w *worker, it *inflightTask, match bool) {
	now := w.now()
	dev := it.dev
	devIdx := int(dev.TraceActor)
	mismatch := !match
	s.cfg.Tracer.EmitT(now, trace.KindIntegrityCheck, int32(w.id), it.ln.tenant, dev.Name,
		int64(it.task.ID), int64(it.pending.NPkts), b2i(mismatch), int64(devIdx))
	action := s.integrityTracker.Observe(devIdx, mismatch)
	if mismatch {
		if !s.mismatchSeen {
			s.mismatchSeen = true
			s.firstMismatchAt = now
		}
		s.cfg.Tracer.EmitT(now, trace.KindIntegrityMismatch, int32(w.id), it.ln.tenant, dev.Name,
			int64(it.task.ID), int64(it.pending.NPkts),
			int64(math.Float64bits(s.integrityTracker.Score(devIdx))), int64(devIdx))
	}
	switch action {
	case integrity.ActionDemote:
		s.demoteDevice(devIdx, now)
	case integrity.ActionFailStop:
		s.failStopDevice(devIdx, now)
	}
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

// demoteDevice ratchets the ALB weight ceiling on the suspect device's socket
// down by demoteStep for every active tenant, steering traffic toward the CPU
// without taking the device out of service (the same mechanism as the
// overload governor's bias ratchet, driven by corruption instead of
// saturation).
func (s *System) demoteDevice(devIdx int, now simtime.Time) {
	socket := s.cfg.Topology.Devices[devIdx].Socket
	for t, ctl := range s.controllers[socket] {
		if ctl == nil || !s.tstate[t].active {
			continue
		}
		lo, hi := ctl.WBounds()
		hi = math.Max(lo, hi-demoteStep)
		ctl.SetWBounds(lo, hi)
	}
	s.emitIntegrityEscalation(now, devIdx, 0)
}

// failStopDevice takes a device whose corruption score crossed the fail
// score out of service (queued tasks fail back through the workers' CPU
// rescue path) and schedules the recovery probe that re-admits it after
// probeAfter.
func (s *System) failStopDevice(devIdx int, now simtime.Time) {
	s.devices[devIdx].Fail()
	s.emitIntegrityEscalation(now, devIdx, 1)
	s.eng.After(probeAfter, func() { s.probeDevice(devIdx) })
}

// probeDevice re-admits a fail-stopped device with a clean score and released
// weight bounds, so a transient corrupter regains service; a device that
// still corrupts is re-demoted by the sentinel on its next sampled mismatch.
func (s *System) probeDevice(devIdx int) {
	if !s.integrityTracker.FailStopped(devIdx) {
		return // already re-admitted (or never integrity-failed)
	}
	s.integrityTracker.Readmit(devIdx)
	s.devices[devIdx].Recover()
	socket := s.cfg.Topology.Devices[devIdx].Socket
	s.releaseWBounds(socket, s.wCeiling(socket))
	s.emitIntegrityEscalation(s.eng.Now(), devIdx, 2)
}

// emitIntegrityEscalation emits one integrity.demote trace record (phase 0 =
// ALB demotion, 1 = fail-stop, 2 = probe re-admit).
func (s *System) emitIntegrityEscalation(now simtime.Time, devIdx int, phase int64) {
	socket := s.cfg.Topology.Devices[devIdx].Socket
	s.cfg.Tracer.Emit(now, trace.KindIntegrityDemote, int32(socket), s.devices[devIdx].Name,
		phase, int64(math.Float64bits(s.integrityTracker.Score(devIdx))),
		int64(s.integrityTracker.Consecutive(devIdx)), int64(devIdx))
}

func (s *System) emitBias(socket, tenant int, lo, hi float64, devSat, cpuSat bool) {
	s.cfg.Tracer.EmitT(s.eng.Now(), trace.KindOverloadBias, int32(socket), int32(tenant), "bias",
		int64(math.Float64bits(lo)), int64(math.Float64bits(hi)),
		b2i(devSat), b2i(cpuSat))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// tenantRecentP99 merges and resets one tenant's per-lane latency windows on
// a socket, returning the p99 observed since the last ALB update.
func (s *System) tenantRecentP99(socket, tenant int) simtime.Time {
	var merged stats.Hist
	for _, w := range s.workers {
		if w.socket == socket {
			ln := w.lanes[tenant]
			merged.Merge(&ln.recentLat)
			ln.recentLat.Reset()
		}
	}
	return merged.Percentile(99)
}

// TenantReport is one tenant's slice of a run: its accounting table (the sum
// of its lanes), its latency distribution, its replay-stable trace
// sub-digest and its SLO verdict.
type TenantReport struct {
	// Name is the tenant's configured name ("" for the implicit tenant of
	// a single-app run).
	Name string
	// Counters is the tenant's packet accounting over the whole run; a
	// drained run satisfies Conserved() per tenant.
	stats.Counters
	// TxGbps is the tenant's transmitted wire throughput over the
	// measurement window.
	TxGbps float64
	// Latency is the tenant's end-to-end latency distribution over the
	// measurement window.
	Latency stats.Hist
	// FinalW is the tenant's socket-0 offloading fraction at the end.
	FinalW float64
	// Digest is the tenant's trace sub-digest ("" when the run's tracer
	// was nil or tenancy was implicit). For an evicted tenant this is the
	// digest sealed at evict commit, not a zero-filled live value.
	Digest string
	// Admitted is the virtual time the tenant entered service (0 for
	// tenants present at construction).
	Admitted simtime.Time
	// Evicted marks a sealed section: the tenant was drained and removed at
	// EvictedAt, its counters are frozen at that point and Digest holds the
	// sealed sub-digest.
	Evicted   bool
	EvictedAt simtime.Time
}

// Report is the outcome of a run.
type Report struct {
	// Measured is the measurement window length.
	Measured simtime.Time
	// TxGbps is the aggregate transmitted wire throughput.
	TxGbps float64
	// TxPPS is the aggregate transmitted packet rate.
	TxPPS float64
	// PerPortGbps is the per-port TX breakdown.
	PerPortGbps []float64
	// Counters is the run's packet accounting (the sum of Tenants[i].Counters)
	// over the whole run including warmup; a drained run satisfies
	// Conserved().
	stats.Counters
	// Latency is the end-to-end latency distribution of packets
	// transmitted during the measurement window.
	Latency stats.Hist
	// FinalW is the offloading fraction at the end (adaptive runs, first
	// tenant).
	FinalW float64
	// LBTrace is socket 0's first-tenant controller trace.
	LBTrace []lb.TracePoint
	// DeviceStats snapshots each accelerator.
	DeviceStats []gpu.Stats
	// IntegrityChecks / CorruptionDetected count sentinel re-executions and
	// the mismatches among them across all workers.
	IntegrityChecks    uint64
	CorruptionDetected uint64
	// DeviceCorruptionScores is each device's final EWMA corruption score
	// (nil when Config.Integrity is nil).
	DeviceCorruptionScores []float64
	// FirstMismatchAt is the virtual time of the first sentinel mismatch
	// (detection latency relative to the corruption window's start); zero
	// when CorruptionDetected is zero.
	FirstMismatchAt simtime.Time
	// RxBacklogHWM is the deepest RX-ring backlog observed on any queue.
	RxBacklogHWM uint64
	// WorkerInflightHWM is the most outstanding device tasks any worker had.
	WorkerInflightHWM int
	// DeviceQueueHWM is the deepest task-queue occupancy observed on any
	// device — with overload control armed it never exceeds the configured
	// DeviceQueueDepth (the queue.bound invariant).
	DeviceQueueHWM int
	// OverloadPeak / OverloadFinal are the most severe and final governor
	// levels across sockets and tenants (always normal when overload
	// control is off).
	OverloadPeak  overload.Level
	OverloadFinal overload.Level
	// TailGbps is the throughput over the last quarter of the measurement
	// window — the converged state of adaptive runs.
	TailGbps float64
	// Capture holds the first Config.CaptureTx transmitted frames.
	Capture []netio.CapturedPacket
	// NodeStats aggregates per-element-instance counters across all worker
	// replicas, keyed by the instance name from the configuration; in
	// multi-tenant runs the key is "tenantName/instanceName".
	NodeStats map[string]NodeStat
	// PoolOutstanding is the number of packets still outstanding at the
	// end — must be zero after a drained run (conservation check).
	PoolOutstanding int
	// Tenants is the per-tenant breakdown (one entry per configured tenant;
	// a single implicit entry with Name "" for classic single-app runs).
	Tenants []TenantReport
}

func (s *System) report() *Report {
	now := s.eng.Now()
	// Finalize RX accounting before reading queue stats: load offered to a
	// queue that ended the run flapped down (or was last polled before the
	// end) becomes head-drop overflow in the drop counters instead of
	// vanishing between the last poll and the end of the run. No trace
	// events are emitted — the engine has stopped, digests are sealed.
	for _, p := range s.ports {
		for _, q := range p.Rx {
			q.FinalizeAccounting(now)
		}
	}

	r := &Report{Measured: now - s.cfg.Warmup}
	if now > s.stopTime {
		r.Measured = s.stopTime - s.cfg.Warmup
	}
	for _, p := range s.ports {
		pps, bps := p.TxM.RateWindow()
		r.TxGbps += stats.Gbps(bps)
		r.TxPPS += pps
		r.PerPortGbps = append(r.PerPortGbps, stats.Gbps(bps))
		for _, q := range p.Rx {
			if h := q.HighWatermark(); h > r.RxBacklogHWM {
				r.RxBacklogHWM = h
			}
		}
	}
	s.tenantReports(r)
	for _, w := range s.workers {
		if w.sentinel != nil {
			r.IntegrityChecks += w.sentinel.Checks
			r.CorruptionDetected += w.sentinel.Mismatches
		}
		if w.inflightHWM > r.WorkerInflightHWM {
			r.WorkerInflightHWM = w.inflightHWM
		}
		r.PoolOutstanding += w.pktPool.Stats().Outstanding
	}
	if s.integrityTracker != nil {
		for i := range s.devices {
			r.DeviceCorruptionScores = append(r.DeviceCorruptionScores, s.integrityTracker.Score(i))
		}
		r.FirstMismatchAt = s.firstMismatchAt
	}
	for _, d := range s.devices {
		st := d.Stats()
		r.DeviceStats = append(r.DeviceStats, st)
		if st.MaxQueued > r.DeviceQueueHWM {
			r.DeviceQueueHWM = st.MaxQueued
		}
	}
	for _, row := range s.governors {
		for _, g := range row {
			if g.Peak() > r.OverloadPeak {
				r.OverloadPeak = g.Peak()
			}
			if g.Level() > r.OverloadFinal {
				r.OverloadFinal = g.Level()
			}
		}
	}
	if dt := (s.stopTime - s.tailMarkTime).Seconds(); s.tailMarkTime > 0 && dt > 0 {
		var bytes uint64
		for i := range s.tailEndBytes {
			bytes += s.tailEndBytes[i] - s.tailMarkBytes[i]
		}
		r.TailGbps = stats.Gbps(float64(bytes) * 8 / dt)
	}
	if ctl := s.controllers[0][0]; ctl != nil {
		r.FinalW = ctl.W()
		r.LBTrace = ctl.Trace
	}
	r.Capture = s.captured
	r.NodeStats = map[string]NodeStat{}
	for _, w := range s.workers {
		for _, ln := range w.lanes {
			prefix := ""
			if name := s.tenants[ln.tenant].Name; name != "" {
				prefix = name + "/"
			}
			for _, n := range ln.g.Nodes {
				key := prefix + n.Name
				st := r.NodeStats[key]
				st.Processed += n.Processed
				st.Dropped += n.Dropped
				st.Splits += n.Splits
				st.Reuses += n.Reuses
				r.NodeStats[key] = st
			}
		}
	}
	s.endOfRunChecks(r)
	return r
}

// tenantReports fills the per-tenant breakdown — each tenant's accounting
// table is the sum of its lanes' views — and from it the run-level table and
// latency distribution: the report is derived lane → tenant → run.
func (s *System) tenantReports(r *Report) {
	r.Tenants = make([]TenantReport, len(s.tenants))
	measured := r.Measured.Seconds()
	for t := range s.tenants {
		tr := &r.Tenants[t]
		tr.Name = s.tenants[t].Name
		tr.Counters = s.tenantCounters(-1, t)
		var wireBytes uint64
		for _, w := range s.workers {
			ln := w.lanes[t]
			tr.Latency.Merge(&ln.latency)
			wireBytes += ln.txWireBytesMeasured
		}
		if measured > 0 {
			tr.TxGbps = stats.Gbps(float64(wireBytes) * 8 / measured)
		}
		if ctl := s.controllers[0][t]; ctl != nil {
			tr.FinalW = ctl.W()
		}
		// Evicted tenants keep a sealed section: counters frozen at the
		// evict (their lanes and queues stopped accruing), the digest
		// sealed at commit, and the exit time recorded — the section is
		// retained, not dropped or zero-filled.
		tr.Admitted = s.tstate[t].admitted
		tr.Evicted = s.tstate[t].evicted
		tr.EvictedAt = s.tstate[t].evictedAt
		tr.Digest = s.cfg.Tracer.TenantDigest(t)
		r.Counters.Add(tr.Counters)
		r.Latency.Merge(&tr.Latency)
	}
}

// endOfRunChecks runs the drain-time invariants. With a checker attached,
// violations are collected on it (the chaos driver needs the run to finish
// and report); without one, a pool leak still panics when the pools are in
// debug-checked mode (-tags debugChecks), keeping the original fail-fast
// behaviour for developer runs.
func (s *System) endOfRunChecks(r *Report) {
	now := s.eng.Now()
	ck := s.cfg.Checker
	// Drain-state invariants (pools empty, conservation) only hold for runs
	// that actually drained; after a watchdog force-stop the in-flight
	// packets are legitimately unaccounted, and drain.stuck already fired.
	drained := s.allWorkersStopped()
	if drained {
		for _, w := range s.workers {
			for _, assert := range []func() error{w.pktPool.AssertDrained, w.batchPool.AssertDrained} {
				err := assert()
				if err == nil {
					continue
				}
				switch {
				case ck != nil:
					ck.PoolDrained(now, err)
				case w.pktPool.DebugChecksEnabled():
					panic(fmt.Sprintf("core: worker %d: %v", w.id, err))
				}
			}
		}
	}
	if ck == nil {
		return
	}
	// Orphaned-lane checks: an epoch still mid-flight when the engine
	// stopped, or plan events that never got their epoch, mean the handoff
	// protocol lost track of work it promised to re-seat.
	if s.rcActive {
		ck.OrphanLane(now, s.rcEpoch, fmt.Sprintf(
			"epoch %d (%s) still in progress at engine stop (begun %v)",
			s.rcEpoch, s.rcEv.Kind, s.rcBegin))
	}
	if s.rcNext < len(s.rcEvents) {
		ck.OrphanLane(now, s.rcEpoch, fmt.Sprintf(
			"%d reconfig event(s) scheduled inside the run never began an epoch (next: %s at %v)",
			len(s.rcEvents)-s.rcNext, s.rcEvents[s.rcNext].Kind, s.rcEvents[s.rcNext].At))
	}
	// Packet conservation over the whole run: every NIC-delivered packet is
	// accounted exactly once as transmitted, dropped inside a pipeline, shed
	// by overload control, or quarantined by the integrity sentinel —
	// globally and within each tenant, so no tenant's loss can hide behind a
	// co-tenant's surplus.
	if drained {
		ck.Conservation(now, invariant.CheckConservation, "", r.Counters)
		for _, tr := range r.Tenants {
			name := tr.Name
			if name == "" {
				name = "t0"
			}
			ck.Conservation(now, invariant.CheckTenantConservation, "tenant "+name+": ", tr.Counters)
		}
	}
	for i, d := range s.devices {
		st := d.Stats()
		ck.DeviceUtil(now, s.cfg.Topology.Devices[i].Name, st.KernelBusy, st.CopyBusy, st.LastFinish)
	}
	ck.EndOfRun(now)
}

// allWorkersStopped reports whether every worker retired normally (false
// after a watchdog force-stop).
func (s *System) allWorkersStopped() bool {
	for _, w := range s.workers {
		if !w.stopped {
			return false
		}
	}
	return true
}

// NodeStat is the aggregated activity of one element instance.
type NodeStat struct {
	Processed uint64
	Dropped   uint64
	Splits    uint64
	Reuses    uint64
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

// newCorruptRand derives the byte-flip stream for one DeviceCorrupt event
// from (run seed, event time, device), making the corruption pattern part of
// the run's identity.
func (s *System) newCorruptRand(ev fault.Event) *rng.Rand {
	return rng.New((s.cfg.Seed*0x9E3779B97F4A7C15 ^ 0xD6E8FEB86659FD93) +
		uint64(ev.At)*0x9D2C5680F4A7C159 + uint64(ev.Device) + 1)
}
