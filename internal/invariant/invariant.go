// Package invariant is the runtime oracle of the chaos harness: a set of
// framework-level correctness checks evaluated continuously while a run
// executes and once more at end of run. The checks encode what must hold in
// the simulation model *regardless of the fault plan* — NBA's robustness
// claim (paper §3.4) is not just "throughput degrades gracefully" but "the
// framework layer stays correct while devices misbehave": no packet is
// leaked or double-accounted, no engine is more than 100% busy, the
// balancer's offloading fraction never leaves [0,1], and virtual time never
// runs backwards.
//
// A Checker is attached to a run through core.Config.Checker and threaded
// into the subsystems (gpu.Device, lb.Controller, netio.RxQueue, the worker
// pools). Every hook is nil-safe and allocation-free when no checker is
// attached, following the same contract as trace.Tracer, so the oracle adds
// zero cost to ordinary runs.
//
// Violations are recorded, not panicked: the chaos driver needs the run to
// finish (or be watchdog-stopped) so it can report, shrink and write a
// reproducer. Violations are appended in dispatch order and capped per
// check, so a badly broken build produces a bounded, deterministic report.
//
// The invariant catalogue (see DESIGN.md §10):
//
//	time.monotonic  — engine dispatch timestamps never decrease
//	gpu.phase       — per-task phase chain submit ≤ host ≤ H2D ≤ kernel ≤ D2H
//	gpu.util        — kernel/copy engine busy time ≤ the device's active span
//	lb.bounds       — the offloading fraction W stays in [0,1]
//	lb.collapse     — a control step that observed task failures collapses W
//	rxq.accounting  — delivered + dropped ≤ arrivals; backlog ≤ capacity
//	pool.drained    — every mempool has Outstanding == 0 after the drain
//	conservation    — every delivered packet is exactly once TX'd, dropped,
//	                  shed (dropped by overload control's CoDel shedder) or
//	                  quarantined (dropped by the integrity sentinel after a
//	                  corruption mismatch)
//	drain.stuck     — the run drained within the post-stop grace window
//	conservation.epoch — the conservation identity holds at every
//	                  reconfiguration epoch boundary (evict seal)
//	reconfig.orphan — every reconfiguration epoch that began also committed;
//	                  no lane is left quiesced at end of run
//	corrupt.leak    — a payload tainted by a DeviceCorrupt fault never
//	                  reaches TX while the integrity sentinel is armed
package invariant

import (
	"fmt"
	"strings"

	"nba/internal/simtime"
	"nba/internal/stats"
)

// Check names, as recorded in Violation.Check.
const (
	CheckTimeMonotonic = "time.monotonic"
	CheckGPUPhase      = "gpu.phase"
	CheckGPUUtil       = "gpu.util"
	CheckLBBounds      = "lb.bounds"
	CheckLBCollapse    = "lb.collapse"
	CheckRxAccounting  = "rxq.accounting"
	CheckPoolDrained   = "pool.drained"
	CheckConservation  = "conservation"
	// CheckTenantConservation is the per-tenant slice of the conservation
	// identity (stats.Counters.Conserved on the tenant's own table), so no
	// tenant's loss can hide behind a co-tenant's surplus in the global sum.
	CheckTenantConservation = "conservation.tenant"
	CheckDrainStuck         = "drain.stuck"
	// CheckEpochConservation is the conservation identity evaluated at a
	// reconfiguration epoch boundary (tenant evict commit): everything the
	// evicted tenant's lanes were ever handed must be fully accounted before
	// the handoff seals its digest.
	// A non-zero residue is a leaked (still-outstanding) pooled packet,
	// which is also how an evicted-tenant mempool leak manifests.
	CheckEpochConservation = "conservation.epoch"
	// CheckReconfigOrphan is the orphaned-lane check: every reconfiguration
	// epoch that began must commit, and no lane may be left quiesced
	// (draining) when the run ends — an orphaned lane holds packets no one
	// will ever drain.
	CheckReconfigOrphan = "reconfig.orphan"
	// CheckCorruptLeak is the corruption-containment check: a packet whose
	// payload was tainted by a DeviceCorrupt fault reached TX. With the
	// integrity sentinel armed at full sampling every corrupted aggregate
	// must be quarantined, so a leak means detection or containment failed.
	CheckCorruptLeak = "corrupt.leak"
	// CheckDeterminism is recorded by the chaos driver, not the runtime
	// hooks: two runs of the same case produced different trace digests.
	CheckDeterminism = "determinism"
)

// Violation is one observed invariant breach.
type Violation struct {
	// Check names the violated invariant (the Check* constants).
	Check string
	// At is the virtual time of the observation.
	At simtime.Time
	// Msg describes the breach with enough context to debug it.
	Msg string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] at %v: %s", v.Check, v.At, v.Msg)
}

// maxPerCheck caps recorded violations per check so a badly broken build
// yields a bounded report; further breaches of the same check are counted
// but not stored.
const maxPerCheck = 16

// Checker is the runtime oracle for one run. The zero value is not usable;
// create with New. A nil *Checker is a valid disabled checker: every hook
// is a cheap no-op, mirroring the trace.Tracer contract.
type Checker struct {
	violations []Violation
	perCheck   [14]int // indexed by checkIndex; counts all breaches
	suppressed int

	lastDispatch simtime.Time
	haveDispatch bool

	// lb.collapse bookkeeping: a step that enters with pending failures must
	// collapse W before the next step (reactToFailures is the first thing a
	// control step does, so the expectation is discharged within the step).
	expectCollapse   bool
	expectCollapseAt simtime.Time
}

// New creates an empty checker.
func New() *Checker { return &Checker{} }

func checkIndex(check string) int {
	switch check {
	case CheckTimeMonotonic:
		return 0
	case CheckGPUPhase:
		return 1
	case CheckGPUUtil:
		return 2
	case CheckLBBounds:
		return 3
	case CheckLBCollapse:
		return 4
	case CheckRxAccounting:
		return 5
	case CheckPoolDrained:
		return 6
	case CheckConservation:
		return 7
	case CheckDrainStuck:
		return 8
	case CheckTenantConservation:
		return 9
	case CheckEpochConservation:
		return 10
	case CheckReconfigOrphan:
		return 11
	case CheckCorruptLeak:
		return 12
	default:
		return 13
	}
}

// Violatef records one breach of the named check. Safe on a nil checker.
func (c *Checker) Violatef(at simtime.Time, check, format string, args ...any) {
	if c == nil {
		return
	}
	idx := checkIndex(check)
	c.perCheck[idx]++
	if c.perCheck[idx] > maxPerCheck {
		c.suppressed++
		return
	}
	c.violations = append(c.violations, Violation{Check: check, At: at, Msg: fmt.Sprintf(format, args...)})
}

// Violations returns the recorded breaches in observation order.
func (c *Checker) Violations() []Violation {
	if c == nil {
		return nil
	}
	return append([]Violation(nil), c.violations...)
}

// Suppressed returns how many breaches exceeded the per-check cap.
func (c *Checker) Suppressed() int {
	if c == nil {
		return 0
	}
	return c.suppressed
}

// Err summarises the recorded violations as one error, nil when the run was
// clean.
func (c *Checker) Err() error {
	if c == nil || len(c.violations) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "invariant: %d violation(s)", len(c.violations))
	if c.suppressed > 0 {
		fmt.Fprintf(&b, " (+%d suppressed)", c.suppressed)
	}
	max := len(c.violations)
	if max > 3 {
		max = 3
	}
	for _, v := range c.violations[:max] {
		fmt.Fprintf(&b, "; %s", v.String())
	}
	return fmt.Errorf("%s", b.String())
}

// --- continuous hooks ---

// OnDispatch observes one engine event firing; dispatch timestamps must be
// non-decreasing (virtual time monotonicity).
func (c *Checker) OnDispatch(at simtime.Time) {
	if c == nil {
		return
	}
	if c.haveDispatch && at < c.lastDispatch {
		c.Violatef(at, CheckTimeMonotonic,
			"engine dispatched an event at %v after one at %v", at, c.lastDispatch)
	}
	c.lastDispatch = at
	c.haveDispatch = true
}

// GPUTask observes one scheduled device task's phase timeline. The command
// queue is a pipeline: each phase must start no earlier than its
// predecessor finished, and nothing may be scheduled before submission.
func (c *Checker) GPUTask(at simtime.Time, dev string, id uint64, submitted, hostDone, h2dDone, kernelDone, finish simtime.Time) {
	if c == nil {
		return
	}
	// Note: submitted can precede at — a task parked by a hang is
	// rescheduled at recovery time with its original submission timestamp.
	ok := submitted <= hostDone && hostDone <= h2dDone &&
		h2dDone <= kernelDone && kernelDone <= finish
	if !ok {
		c.Violatef(at, CheckGPUPhase,
			"device %s task %d phases out of order: submit %v host %v h2d %v kernel %v d2h %v",
			dev, id, submitted, hostDone, h2dDone, kernelDone, finish)
	}
}

// LBStep observes the entry of one adaptive control step: the current W
// must be in bounds, any collapse expectation from the previous step must
// have been discharged, and a step entering with pending task failures must
// collapse W (verified by LBCollapse before the next LBStep).
func (c *Checker) LBStep(at simtime.Time, w float64, pendingFails int) {
	if c == nil {
		return
	}
	if c.expectCollapse {
		c.Violatef(at, CheckLBCollapse,
			"control step at %v observed task failures but never collapsed W", c.expectCollapseAt)
		c.expectCollapse = false
	}
	c.checkW(at, w, "step entry")
	if pendingFails > 0 {
		c.expectCollapse = true
		c.expectCollapseAt = at
	}
}

// LBCollapse observes the failure-reaction path firing (W halved toward the
// CPU), discharging the expectation set by LBStep.
func (c *Checker) LBCollapse(at simtime.Time, w float64) {
	if c == nil {
		return
	}
	c.expectCollapse = false
	c.checkW(at, w, "failure collapse")
}

// LBUpdated observes W after a control step wrote it.
func (c *Checker) LBUpdated(at simtime.Time, w float64) {
	if c == nil {
		return
	}
	c.checkW(at, w, "step exit")
}

func (c *Checker) checkW(at simtime.Time, w float64, where string) {
	if w < 0 || w > 1 || w != w { // w != w catches NaN
		c.Violatef(at, CheckLBBounds, "offloading fraction W = %v at %s, want [0,1]", w, where)
	}
}

// RxQueue observes one RX queue's accounting after a poll: the queue can
// never have handed out or dropped more packets than arrived, and the
// surviving backlog can never exceed the ring capacity.
func (c *Checker) RxQueue(at simtime.Time, port, queue int, arrivals, delivered, dropped uint64, capacity int) {
	if c == nil {
		return
	}
	if delivered+dropped > arrivals {
		c.Violatef(at, CheckRxAccounting,
			"rxq %d/%d delivered %d + dropped %d exceeds arrivals %d",
			port, queue, delivered, dropped, arrivals)
		return
	}
	if backlog := arrivals - delivered - dropped; backlog > uint64(capacity) {
		c.Violatef(at, CheckRxAccounting,
			"rxq %d/%d backlog %d exceeds capacity %d", port, queue, backlog, capacity)
	}
}

// --- end-of-run hooks ---

// DeviceUtil checks that a device's accounted engine busy time fits inside
// its active span [0, lastFinish]: a kernel engine or the single half-duplex
// copy engine scheduled beyond 100% utilization means double-booked time.
func (c *Checker) DeviceUtil(at simtime.Time, dev string, kernelBusy, copyBusy, lastFinish simtime.Time) {
	if c == nil || lastFinish <= 0 {
		return
	}
	if kernelBusy > lastFinish {
		c.Violatef(at, CheckGPUUtil,
			"device %s kernel engine busy %v over active span %v (util %.2f > 1)",
			dev, kernelBusy, lastFinish, float64(kernelBusy)/float64(lastFinish))
	}
	if copyBusy > lastFinish {
		c.Violatef(at, CheckGPUUtil,
			"device %s copy engine busy %v over active span %v (util %.2f > 1)",
			dev, copyBusy, lastFinish, float64(copyBusy)/float64(lastFinish))
	}
}

// PoolDrained records a mempool.AssertDrained failure.
func (c *Checker) PoolDrained(at simtime.Time, err error) {
	if c == nil || err == nil {
		return
	}
	c.Violatef(at, CheckPoolDrained, "%v", err)
}

// Conservation checks the packet-conservation identity over one scope's
// accounting table: every buffer the NIC layer materialised was transmitted,
// dropped in the graph, shed by overload control, or quarantined by the
// integrity sentinel — each exactly once. (Double accounting shows up as the
// accounted sum exceeding delivered; a leak shows up as the opposite plus a
// pool.drained breach.) check selects which identity is recorded — the whole
// run (CheckConservation), one tenant's slice (CheckTenantConservation) or
// an evicted tenant's lanes at its epoch boundary (CheckEpochConservation,
// where a positive residue is a leaked pooled packet) — and scope prefixes
// the message with the tenant / epoch it covers.
func (c *Checker) Conservation(at simtime.Time, check, scope string, n stats.Counters) {
	if c == nil || n.Conserved() {
		return
	}
	diff := int64(n.Accounted()) - int64(n.RxDelivered)
	tail := fmt.Sprintf("(diff %+d)", diff)
	if check == CheckEpochConservation {
		tail = fmt.Sprintf("at evict seal (residue %+d)", -diff)
	}
	c.Violatef(at, check,
		"%sdelivered %d != transmitted %d + dropped %d + shed %d + quarantined %d %s",
		scope, n.RxDelivered, n.TxPackets, n.GraphDrops, n.ShedPackets, n.QuarantinedPackets, tail)
}

// OrphanLane records a reconfiguration orphan: an epoch that began but
// never committed, or a lane still quiesced when the run ended. detail
// describes what was stranded.
func (c *Checker) OrphanLane(at simtime.Time, epoch int, detail string) {
	if c == nil {
		return
	}
	c.Violatef(at, CheckReconfigOrphan, "epoch %d: %s", epoch, detail)
}

// CorruptLeak records a corruption-containment breach: a packet whose
// payload a DeviceCorrupt fault tainted was transmitted. Called from the TX
// path only while the integrity sentinel is armed (a disarmed run is allowed
// to leak — that is precisely the failure mode the sentinel exists to stop).
func (c *Checker) CorruptLeak(at simtime.Time, worker int, seq uint64) {
	if c == nil {
		return
	}
	c.Violatef(at, CheckCorruptLeak,
		"worker %d transmitted corrupted packet seq %d with the sentinel armed", worker, seq)
}

// StuckDrain records that the run failed to drain within the watchdog grace
// window and was force-stopped.
func (c *Checker) StuckDrain(at simtime.Time, workers int) {
	if c == nil {
		return
	}
	c.Violatef(at, CheckDrainStuck,
		"%d worker(s) still undrained at stop+grace; run force-stopped", workers)
}

// EndOfRun discharges pending cross-step expectations; call it after the
// engine stopped and all other end-of-run checks ran.
func (c *Checker) EndOfRun(at simtime.Time) {
	if c == nil {
		return
	}
	if c.expectCollapse {
		c.Violatef(at, CheckLBCollapse,
			"control step at %v observed task failures but never collapsed W (run ended)", c.expectCollapseAt)
		c.expectCollapse = false
	}
}
