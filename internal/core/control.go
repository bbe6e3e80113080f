package core

import (
	"math"

	"nba/internal/lb"
	"nba/internal/overload"
	"nba/internal/simtime"
	"nba/internal/stats"
	"nba/internal/trace"
)

// controlCells is the balancing control plane, indexed [socket][tenant]:
// each tenant gets its own ALB control loop and degradation governor on
// every socket, so one tenant's congestion escalates trim → bias for that
// tenant alone. installTenant appends a tenant's column; start arms its
// loops. A System without sockets has no rows and schedules nothing.
type controlCells [][]*controlCell

// controlCell is one (socket, tenant) pair's control loops and the state they
// carry from one firing to the next.
type controlCell struct {
	socket, tenant int
	// ctl is the tenant's adaptive controller on the socket, nil when its
	// lanes there have no adaptive LoadBalance.
	ctl *lb.Controller
	// window is the latency of the tenant's packets on the socket since the
	// last ALB update. Its lanes record into it (lane.recent) only when
	// ALBLatencyBound is set; otherwise it stays empty.
	window stats.Hist
	// gov is the overload governor. It steps only when Config.Overload is
	// set; otherwise it stays at LevelNormal.
	gov overload.Governor
	// last is what the previous observe and update firings saw; prev is the
	// tenant's accounting table as of the previous governor window.
	last struct {
		pkts, fails uint64
		at          simtime.Time
	}
	prev stats.Counters
}

// install appends tenant t's cell on every socket, with an adaptive
// controller where its lanes created shared LB state (LoadBalance elements
// do, during Configure). A bounded controller's lanes record their latency
// into the cell's window.
func (cc controlCells) install(s *System, t int) {
	for socket := range cc {
		c := &controlCell{socket: socket, tenant: t}
		if st, ok := s.nodeLocals[socket][t].Get(lb.StateKey).(*lb.State); ok && st.AdaptiveUsers > 0 {
			c.ctl = lb.NewController(st)
			c.ctl.Bound = s.cfg.ALBLatencyBound
			c.ctl.Tracer = s.cfg.Tracer
			c.ctl.TraceNow = s.eng.Now
			c.ctl.TraceActor = int32(socket)
			c.ctl.TraceTenant = int32(t)
			c.ctl.Checker = s.cfg.Checker
			c.ctl.SetWBounds(0, s.wCeiling(socket))
			for _, w := range s.workers {
				if w.socket == socket && s.cfg.ALBLatencyBound > 0 {
					w.lanes[t].recent = &c.window
				}
			}
		}
		cc[socket] = append(cc[socket], c)
	}
}

// start arms the loops of tenants [from, len(tenants)): every boot-time
// tenant at Run start, the new tenant at an admit commit. Socket-major,
// tenant-minor registration — ALB loops first, governor loops after, the
// latter only when overload control is armed — fixes the same-tick firing
// order, so runs without those planes keep their exact event timeline (and
// their golden trace digests).
func (cc controlCells) start(s *System, from int) {
	for _, row := range cc {
		for _, c := range row[from:] {
			if c.ctl != nil {
				s.tenantLoop(c.tenant, s.cfg.ALBObserve, func() { c.observe(s) })
				s.tenantLoop(c.tenant, s.cfg.ALBUpdate, func() { c.update(s) })
			}
		}
	}
	if s.cfg.Overload == nil {
		return
	}
	for _, row := range cc {
		for _, c := range row[from:] {
			s.tenantLoop(c.tenant, governorWindow, func() { c.govern(s) })
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

// observe feeds the controller the tenant's socket throughput since the
// previous observation.
func (c *controlCell) observe(s *System) {
	now := s.eng.Now()
	pkts := s.tenantCounters(c.socket, c.tenant).TxPackets
	if now > c.last.at {
		c.ctl.Observe(float64(pkts-c.last.pkts) / (now - c.last.at).Seconds())
	}
	c.last.pkts, c.last.at = pkts, now
}

// update runs one control step of the tenant's shared W. Completion failures
// since the last step steer the controller: a failing device forces W toward
// the CPU regardless of the throughput signal. The window's p99 bounds the
// step when the controller is bounded (lb.Controller.UpdateWithLatency).
func (c *controlCell) update(s *System) {
	ctr := s.tenantCounters(c.socket, c.tenant)
	c.ctl.NoteTaskFailures(int(ctr.FailedTasks - c.last.fails))
	c.last.fails = ctr.FailedTasks
	c.ctl.UpdateWithLatency(c.window.Percentile(99))
	c.window.Reset()
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

// release resets the weight bounds of every active tenant's controller on
// socket to [0, hi], dropping any bias or demotion ratchet, and returns how
// many it reset.
func (cc controlCells) release(s *System, socket int, hi float64) int {
	n := 0
	for t, c := range cc[socket] {
		if c.ctl != nil && s.tstate[t].active {
			c.ctl.SetWBounds(0, hi)
			n++
		}
	}
	return n
}

// report fills the run's final W and socket 0's first-tenant controller
// trace, each tenant's final W, and the most severe governor level.
func (cc controlCells) report(r *Report) {
	if ctl := cc[0][0].ctl; ctl != nil {
		r.FinalW = ctl.W()
		r.LBTrace = ctl.Trace
	}
	for t, c := range cc[0] {
		if c.ctl != nil {
			r.Tenants[t].FinalW = c.ctl.W()
		}
	}
	for _, row := range cc {
		for _, c := range row {
			if c.gov.Peak() > r.OverloadPeak {
				r.OverloadPeak = c.gov.Peak()
			}
		}
	}
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

// govern runs one overload-governor window for the cell: observe saturation
// (device backlogged = device-side, shared across tenants; the tenant's RX
// drops or sheds still accruing = CPU-side) and apply the resulting
// degradation level to the tenant alone.
func (c *controlCell) govern(s *System) {
	now := s.eng.Now()

	devSat := false
	// A hot-unplugged device is no longer a saturation signal.
	if di, ok := s.cfg.Topology.DeviceOnSocket(c.socket); ok && s.epochs.plugged(di) {
		devSat = backlogged(s, s.devices[di])
	}
	// Count the tenant's ring overflow up to now, not to each queue's last
	// poll: while every worker on the socket is held back, its rings still
	// overflow, and the window must see those drops.
	for _, w := range s.workers {
		if w.socket == c.socket {
			for _, q := range w.lanes[c.tenant].rxqs {
				q.AccountTo(now)
			}
		}
	}
	cur := s.tenantCounters(c.socket, c.tenant)
	cpuSat := cur.RxDropped > c.prev.RxDropped ||
		cur.ShedPackets > c.prev.ShedPackets
	c.prev = cur

	old := c.gov.Level()
	lvl, changed := c.gov.Observe(devSat || cpuSat)
	if changed {
		// Trim: shrink the offload aggregation age so the tenant's packets
		// stop maturing behind a congested device; restore it on recovery
		// below Trim.
		scale := 1.0
		if lvl >= overload.LevelTrim {
			scale = trimAgeScale
		}
		for _, w := range s.workers {
			if w.socket == c.socket {
				w.lanes[c.tenant].agg.AgeScale = scale
			}
		}
		// Leaving Bias on the way up releases the ALB weight bounds.
		if lvl < overload.LevelBias && old >= overload.LevelBias && c.ctl != nil {
			hi := s.wCeiling(c.socket)
			c.ctl.SetWBounds(0, hi)
			c.emitBias(s, 0, hi, devSat, cpuSat)
		}
		s.cfg.Tracer.EmitT(now, trace.KindOverloadLevel, int32(c.socket), int32(c.tenant), lvl.String(),
			int64(lvl), int64(old), b2i(devSat), b2i(cpuSat))
		s.wakeSocket(c.socket)
	}
	// Bias ratchet: each saturated window at LevelBias with an
	// unambiguous direction moves the weight bound one step toward the
	// uncongested processor (device congested → ceiling down toward the CPU,
	// CPU congested → floor up toward the device).
	if lvl == overload.LevelBias && devSat != cpuSat && c.ctl != nil {
		lo, hi := c.ctl.WBounds()
		if devSat {
			hi = math.Max(lo, hi-biasStep)
		} else {
			lo = math.Min(hi, lo+biasStep)
		}
		c.ctl.SetWBounds(lo, hi)
		c.emitBias(s, lo, hi, devSat, cpuSat)
	}
}

func (c *controlCell) emitBias(s *System, lo, hi float64, devSat, cpuSat bool) {
	s.cfg.Tracer.EmitT(s.eng.Now(), trace.KindOverloadBias, int32(c.socket), int32(c.tenant), "bias",
		int64(math.Float64bits(lo)), int64(math.Float64bits(hi)),
		b2i(devSat), b2i(cpuSat))
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
