package core

import (
	"fmt"

	"nba/internal/gpu"
	"nba/internal/invariant"
	"nba/internal/lb"
	"nba/internal/netio"
	"nba/internal/overload"
	"nba/internal/simtime"
	"nba/internal/stats"
)

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
			// Finalize RX accounting before reading queue stats: load
			// offered to a queue that ended the run flapped down (or was
			// last polled before the end) becomes head-drop overflow in the
			// drop counters instead of vanishing between the last poll and
			// the end of the run. No trace events are emitted — the engine
			// has stopped, digests are sealed.
			q.FinalizeAccounting(now)
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
	s.escalation.report(r, len(s.devices))
	for _, d := range s.devices {
		st := d.Stats()
		r.DeviceStats = append(r.DeviceStats, st)
		if st.MaxQueued > r.DeviceQueueHWM {
			r.DeviceQueueHWM = st.MaxQueued
		}
	}
	s.cells.report(r)
	if dt := (s.stopTime - s.tailMarkTime).Seconds(); s.tailMarkTime > 0 && dt > 0 {
		var bytes uint64
		for i, p := range s.ports {
			bytes += p.TxM.EndBytes() - s.tailMarkBytes[i]
		}
		r.TailGbps = stats.Gbps(float64(bytes) * 8 / dt)
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
		// Evicted tenants keep a sealed section: counters frozen at the
		// evict (their lanes and queues stopped accruing), the digest
		// sealed at commit, and the exit time recorded — the section is
		// retained, not dropped or zero-filled.
		tr.Admitted = s.tstate[t].admitted
		tr.Evicted = !s.tstate[t].active
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
	drained := s.stuckWorkers() == 0
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
	s.epochs.endOfRun(ck, now)
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

// stuckWorkers counts the workers that have not retired (none after a
// normal drain; some after a watchdog force-stop).
func (s *System) stuckWorkers() int {
	stuck := 0
	for _, w := range s.workers {
		if !w.stopped {
			stuck++
		}
	}
	return stuck
}

// NodeStat is the aggregated activity of one element instance.
type NodeStat struct {
	Processed uint64
	Dropped   uint64
	Splits    uint64
	Reuses    uint64
}
