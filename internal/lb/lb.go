// Package lb implements NBA's CPU/GPU load balancers (paper §3.4).
//
// Load balancers are per-batch elements placed ahead of offloadable
// elements: they write the chosen computation device into the batch-level
// device annotation, which the framework reads when the batch reaches an
// offloadable element (paper Figure 7).
//
// The adaptive algorithm (ALB) maximises system throughput without any
// application- or hardware-specific knowledge: it observes smoothed
// throughput and moves the offloading fraction w by ±δ in the direction
// that last improved it, with a waiting-interval ramp and continuous
// perturbation exactly as the paper describes.
package lb

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/invariant"
	"nba/internal/simtime"
	"nba/internal/stats"
	"nba/internal/trace"
)

// StateKey is the node-local storage key of the shared balancing state.
const StateKey = "nba.lb.state"

// State is the balancing state shared between the per-worker LoadBalance
// element replicas and the socket's adaptive controller.
type State struct {
	// W is the offloading fraction in [0,1]: the probability that a batch
	// is routed to the accelerator.
	W float64
	// AdaptiveUsers counts LoadBalance replicas configured with the
	// adaptive algorithm; the framework only runs a controller when > 0.
	AdaptiveUsers int
}

// SharedState fetches (or creates) the socket's shared state.
func SharedState(nl *element.NodeLocal) *State {
	s, _ := element.GetOrCreate(nl, StateKey, func() (*State, error) { return &State{}, nil }) // this build cannot fail
	return s
}

// Algorithm selects the balancing policy of a LoadBalance element.
type Algorithm int

const (
	// CPUOnly runs every offloadable on the CPU.
	CPUOnly Algorithm = iota
	// GPUOnly offloads every batch (other elements still run on the CPU).
	GPUOnly
	// Fixed offloads a fixed fraction of batches (Figure 2's sweep).
	Fixed
	// Adaptive follows the shared state maintained by the Controller.
	Adaptive
)

// LoadBalance is the balancer element. Configuration parameter forms:
//
//	LoadBalance("cpu")        — CPU only
//	LoadBalance("gpu")        — GPU only
//	LoadBalance("fixed=0.8")  — offload 80% of batches
//	LoadBalance("adaptive")   — ALB (requires a Controller ticking)
type LoadBalance struct {
	Alg   Algorithm
	fixed float64
	state *State
	ndev  int

	// Decisions counts batches routed per destination (0 = CPU).
	Decisions [2]uint64
}

func init() {
	element.Register("LoadBalance", func() element.Element { return &LoadBalance{} })
}

// Class implements element.Element.
func (*LoadBalance) Class() string { return "LoadBalance" }

// OutPorts implements element.Element.
func (*LoadBalance) OutPorts() int { return 1 }

// Configure implements element.Element.
func (e *LoadBalance) Configure(ctx *element.ConfigContext, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("LoadBalance needs exactly one parameter, got %d", len(args))
	}
	e.state = SharedState(ctx.NodeLocal)
	e.ndev = ctx.NumDevices
	arg := args[0]
	switch {
	case arg == "cpu":
		e.Alg = CPUOnly
	case arg == "gpu":
		e.Alg = GPUOnly
	case arg == "adaptive":
		e.Alg = Adaptive
		e.state.AdaptiveUsers++
	case strings.HasPrefix(arg, "fixed="):
		f, err := strconv.ParseFloat(strings.TrimPrefix(arg, "fixed="), 64)
		if err != nil || !(f >= 0 && f <= 1) { // the negated form also rejects NaN
			return fmt.Errorf("LoadBalance: bad fixed fraction %q", arg)
		}
		e.Alg = Fixed
		e.fixed = f
	default:
		return fmt.Errorf("LoadBalance: unknown algorithm %q", arg)
	}
	if e.Alg != CPUOnly && e.ndev == 0 {
		return fmt.Errorf("LoadBalance: %q requires an accelerator but the socket has none", arg)
	}
	return nil
}

// ProcessBatch stamps the device decision on the batch.
func (e *LoadBalance) ProcessBatch(ctx *element.ProcContext, b *batch.Batch) int {
	dev := batch.CPUDevice
	switch e.Alg {
	case CPUOnly:
	case GPUOnly:
		dev = 1
	case Fixed:
		if ctx.Rand.Bool(e.fixed) {
			dev = 1
		}
	case Adaptive:
		if ctx.Rand.Bool(e.state.W) {
			dev = 1
		}
	}
	b.Anno[batch.AnnoDevice] = uint64(dev)
	if dev == batch.CPUDevice {
		e.Decisions[0]++
	} else {
		e.Decisions[1]++
	}
	return 0
}

// Controller drives the adaptive algorithm for one socket. The framework
// calls Observe at a fine interval (throughput sampling) and Update every
// update interval (0.2 s in the paper).
type Controller struct {
	state *State

	// Delta is the step size (paper: 4%).
	Delta float64
	// MaxWait is the waiting-interval ramp ceiling in update intervals
	// (paper: 2 at w=0 growing to 32 at w=100%).
	MinWait, MaxWait int
	// Tolerance is the relative throughput drop treated as noise rather
	// than a real degradation (guards against false direction flips).
	Tolerance float64
	// Bound, when positive, turns the controller into the bounded-latency
	// variant (paper §7 future work): throughput is maximised subject to
	// the socket's p99 latency staying under Bound. Use UpdateWithLatency.
	Bound simtime.Time

	avg     *stats.MovingAverage
	dir     float64
	last    float64
	wait    int
	bounces int // consecutive rejected perturbations at a boundary
	// Externally-imposed bounds on W (the overload governor's bias
	// mechanism). Inactive until SetWBounds is called, so the zero value
	// keeps the classic unconstrained hill-climb.
	wmin, wmax float64
	hasBounds  bool
	// recentFails counts failed/timed-out offload completions reported via
	// NoteTaskFailures since the last control step.
	recentFails int
	// Trace records (W, throughput) after each update for diagnostics.
	Trace []TracePoint

	// Tracer, when non-nil, receives one trace.KindLBUpdate event per
	// control step that changed W (mirroring Trace). TraceNow supplies the
	// current virtual time; TraceActor identifies the socket and
	// TraceTenant the tenant this controller balances for (trace.NoTenant
	// when unowned — the zero value is tenant 0, matching legacy runs).
	Tracer      *trace.Tracer
	TraceNow    func() simtime.Time
	TraceActor  int32
	TraceTenant int32

	// Checker, when non-nil, verifies W stays in [0,1] and that observed
	// task failures actually trigger the collapse path (lb.bounds,
	// lb.collapse invariants).
	Checker *invariant.Checker
}

// TracePoint is one controller update observation.
type TracePoint struct {
	// At is the virtual time of the control step (zero when the controller
	// has no TraceNow clock attached, e.g. in unit tests).
	At         simtime.Time
	W          float64
	Throughput float64
}

// NewController creates an adaptive controller bound to the socket state.
func NewController(state *State) *Controller {
	state.W = 0.5 // neutral start; the climb direction is discovered
	return &Controller{
		state: state,
		Delta: 0.04,
		// The paper waits 2..32 update intervals of 0.2 s; our virtual-time
		// runs use millisecond update intervals, so the ramp is scaled down
		// to keep convergence within a few hundred milliseconds.
		MinWait:   1,
		MaxWait:   6,
		Tolerance: 0.01,
		// The paper smooths over a 16384-sample history of per-10K-cycle
		// counts; we sample throughput per observation interval, so a much
		// smaller window gives the same smoothing span.
		avg: stats.NewMovingAverage(16),
		dir: +1,
	}
}

// Observe feeds one throughput sample (e.g. pps over the last 10 ms).
func (c *Controller) Observe(pps float64) { c.avg.Push(pps) }

// SetWBounds constrains the offloading fraction to [lo, hi] from now on —
// the overload governor's bias mechanism: ratcheting hi down steers load off
// a congested device, ratcheting lo up steers it off congested CPUs. The
// current W is clamped immediately. Bounds are sanitised to 0 ≤ lo ≤ hi ≤ 1.
func (c *Controller) SetWBounds(lo, hi float64) {
	lo = math.Max(0, math.Min(1, lo))
	hi = math.Max(0, math.Min(1, hi))
	if hi < lo {
		hi = lo
	}
	c.wmin, c.wmax, c.hasBounds = lo, hi, true
	if w := c.clampW(c.state.W); w != c.state.W {
		c.state.W = w
		c.Checker.LBUpdated(c.now(), w)
	}
}

// WBounds returns the active bounds on W, (0, 1) when unconstrained.
func (c *Controller) WBounds() (lo, hi float64) {
	if !c.hasBounds {
		return 0, 1
	}
	return c.wmin, c.wmax
}

// clampW applies the external bounds; identity until SetWBounds is called.
func (c *Controller) clampW(w float64) float64 {
	if !c.hasBounds {
		return w
	}
	return math.Max(c.wmin, math.Min(c.wmax, w))
}

// W returns the current offloading fraction.
func (c *Controller) W() float64 { return c.state.W }

// NoteTaskFailures reports n failed or timed-out offload-task completions
// observed since the last control step. A non-zero count makes the next
// control step collapse W toward the CPU instead of hill-climbing: a
// failing device's throughput signal is meaningless, and every offloaded
// batch is paying the CPU-fallback penalty on top of its detour.
func (c *Controller) NoteTaskFailures(n int) {
	if n > 0 {
		c.recentFails += n
	}
}

// reactToFailures is the emergency path of a control step: halve W (snap to
// 0 below one step) while offload completions are failing, bypassing the
// waiting ramp. Once the device recovers and failures stop, the ordinary
// perturbation escapes w=0 and the hill-climb re-discovers the optimum.
func (c *Controller) reactToFailures() bool {
	if c.recentFails == 0 {
		return false
	}
	c.recentFails = 0
	w := c.state.W / 2
	if w < c.Delta {
		w = 0
	}
	// Honour only the ceiling here: a bias floor must never hold W up
	// against a failing device's collapse.
	if c.hasBounds && w > c.wmax {
		w = c.wmax
	}
	c.state.W = w
	c.dir = -1
	c.wait = c.MinWait
	c.bounces = 0
	c.last = 0 // the throughput slope must be re-learned from scratch
	c.avg.Reset()
	c.Trace = append(c.Trace, TracePoint{At: c.now(), W: w, Throughput: 0}) //nbalint:allow sharedstate control trace; read happens-after the event loop drains
	c.Checker.LBCollapse(c.now(), w)
	c.emitTrace(w, 0)
	return true
}

// Update runs one control step: move w by ±δ in the direction that last
// improved smoothed throughput, honouring the waiting-interval ramp.
func (c *Controller) Update() {
	c.Checker.LBStep(c.now(), c.state.W, c.recentFails)
	if c.reactToFailures() {
		return
	}
	if c.wait > 0 {
		c.wait--
		return
	}
	cur := c.avg.Mean()
	if c.avg.Count() == 0 {
		// Dead window: no Observe landed since the last step (the observe
		// interval outpaces updates, or delivery stalled entirely). Mean()
		// is 0 here, and comparing it against last would spuriously flip
		// direction every step. Keep last and the direction, keep moving.
		cur = c.last
	} else {
		if cur < c.last*(1-c.Tolerance) {
			c.dir = -c.dir
		}
		c.last = cur
	}

	// Discard samples observed under the old fraction: the paper waits for
	// all workers to apply the updated value before the next observation.
	c.avg.Reset()

	prev := c.state.W
	w := prev + c.dir*c.Delta
	switch {
	case w <= 0:
		w = 0
		c.dir = +1
	case w >= 1:
		w = 1
		c.dir = -1
	}
	if cl := c.clampW(w); cl != w {
		// A bias bound rejected the step: turn around, as at a boundary.
		c.dir = -c.dir
		w = cl
	}
	c.state.W = w
	c.Checker.LBUpdated(c.now(), w)
	c.Trace = append(c.Trace, TracePoint{At: c.now(), W: w, Throughput: cur})

	// Waiting ramp: higher w ⇒ longer settling (paper: jitter persists
	// longer at high offload fractions).
	ramp := c.MinWait + int(w*float64(c.MaxWait-c.MinWait))
	switch {
	case w == 0 || w == 1:
		// Converged at a boundary. The paper "gradually increases the
		// waiting interval": every rejected perturbation doubles the dwell
		// there, so the steady-state perturbation cost amortises away while
		// the controller can still escape after a workload change.
		if c.bounces < 6 {
			c.bounces++
		}
		c.wait = ramp << c.bounces
	case prev == 0 || prev == 1:
		// Perturbation away from a boundary: judge it quickly.
		c.wait = c.MinWait
	default:
		c.bounces = 0
		c.wait = ramp
	}
	c.emitTrace(w, cur)
}

// now returns the controller's virtual time, zero without a clock.
func (c *Controller) now() simtime.Time {
	if c.TraceNow != nil {
		return c.TraceNow()
	}
	return 0
}

// emitTrace records one control step on the run tracer. Float payloads are
// carried as math.Float64bits so the event stream stays bit-exact.
func (c *Controller) emitTrace(w, throughput float64) {
	if c.Tracer == nil {
		return
	}
	now := c.now()
	c.Tracer.EmitT(now, trace.KindLBUpdate, c.TraceActor, c.TraceTenant, "alb",
		int64(math.Float64bits(w)), int64(math.Float64bits(throughput)),
		int64(c.dir), int64(c.wait))
}

// UpdateWithLatency is the bounded-latency control step: while the observed
// p99 latency exceeds Bound, the offloading fraction is pushed down
// (accelerators add latency through aggregation, copies and kernel time);
// once within the bound, the ordinary throughput hill-climb resumes.
//
// Limitation, documented deliberately: when the CPU alone cannot carry the
// load, reducing w inflates NIC-queue latency instead — there is no feasible
// point, and the controller parks at w=0 shedding load, which is the
// conservative choice.
func (c *Controller) UpdateWithLatency(p99 simtime.Time) {
	if c.Bound <= 0 || p99 <= c.Bound {
		c.Update()
		return
	}
	c.Checker.LBStep(c.now(), c.state.W, c.recentFails)
	if c.reactToFailures() {
		return
	}
	if c.wait > 0 {
		c.wait--
		return
	}
	c.avg.Reset()
	c.last = 0 // force re-learning of the throughput slope afterwards
	w := c.state.W - c.Delta
	if w < 0 {
		w = 0
	}
	c.state.W = w
	c.Checker.LBUpdated(c.now(), w)
	c.dir = -1
	c.bounces = 0
	c.Trace = append(c.Trace, TracePoint{At: c.now(), W: w, Throughput: -p99.Micros()})
	c.wait = c.MinWait
	c.emitTrace(w, -p99.Micros())
}
