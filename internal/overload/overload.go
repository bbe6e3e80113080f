// Package overload is the end-to-end overload-control subsystem: it makes
// every datapath stage bounded and backpressure-aware in virtual time.
//
// The paper's adaptive load balancer (§3.4) assumes every stage keeps up on
// average; under sustained overload that assumption breaks and unbounded
// interior queues (device task queues, offload aggregates) silently absorb
// the excess, inflating memory and tail latency instead of degrading
// gracefully. This package provides the three mechanisms the framework
// composes into graceful degradation:
//
//   - Config — the two knobs runs set: a device task-queue depth
//     (admission control at gpu.Device.Submit; rejected tasks are rescued
//     on the CPU or shed) and the CoDel interval of the worker-side sojourn
//     shedder. The sojourn target and the governor's hysteresis are
//     constants.
//   - CoDel — a deterministic CoDel-style shedder driven entirely by the
//     virtual clock: packets whose RX-ring sojourn stays above the target
//     for a full interval are dropped at increasing rate (the classic
//     interval/sqrt(count) control law) until the standing queue drains.
//     No wall time anywhere, so runs stay bit-reproducible.
//   - Governor — a per-socket state machine reacting to sustained
//     saturation with stepwise graceful degradation: Normal → Trim (shrink
//     the offload aggregation age) → Bias (clamp the ALB weight toward the
//     uncongested processor) → Shed (admission rejections are dropped
//     instead of rescued), stepping back up after sustained recovery.
//
// Everything here is pure state-machine logic; the wiring lives in
// internal/core (worker/system), internal/gpu (admission) and internal/lb
// (weight bounds).
package overload

import (
	"math"

	"nba/internal/simtime"
)

// Config arms the overload-control subsystem for a run. The zero value of
// each field selects its default; a negative DeviceQueueDepth leaves the
// device queue unbounded.
type Config struct {
	// DeviceQueueDepth bounds a device's task queue (scheduled + parked
	// tasks). Submissions beyond it are refused before any accounting;
	// the worker rescues the aggregate on the CPU, or sheds it when the
	// governor has reached LevelShed. Default 64; negative = unbounded.
	DeviceQueueDepth int
	// CoDelInterval is the CoDel control interval. Default 10 × the 50 µs
	// sojourn target.
	CoDelInterval simtime.Time
}

// codelTarget is the acceptable standing RX sojourn: a polled packet whose
// queueing delay stayed above it for a full interval is shed ahead of
// pipeline processing. 50 µs is about a dozen 64-frame RX bursts of 64 B
// frames at 10 Gbps and well below an offload round trip (≈ 190 µs for
// IPsec), so a queue that stays above it is standing, not a burst.
const codelTarget simtime.Time = 50 * simtime.Microsecond

// The governor degrades one level after stepDown consecutive saturated
// windows and recovers one after stepUp consecutive clear ones. The
// asymmetry is the boundary hysteresis the no-oscillation property tests
// pin: it takes one saturated window to void a recovery streak.
const (
	stepDown = 2
	stepUp   = 8
)

// WithDefaults fills unset fields, returning a copy.
func (c Config) WithDefaults() Config {
	if c.DeviceQueueDepth == 0 {
		c.DeviceQueueDepth = 64
	}
	if c.DeviceQueueDepth < 0 {
		c.DeviceQueueDepth = 0 // unbounded
	}
	if c.CoDelInterval <= 0 {
		c.CoDelInterval = 10 * codelTarget
	}
	return c
}

// Defaults returns a fully-defaulted config, the canonical "armed" value.
func Defaults() *Config {
	c := Config{}.WithDefaults()
	return &c
}

// Level is the governor's degradation state, ordered by severity.
type Level int

const (
	// LevelNormal: no reaction; all mechanisms at nominal settings.
	LevelNormal Level = iota
	// LevelTrim: offload aggregates flush early (core's trimAgeScale of
	// their nominal age), so packets stop maturing behind a congested device.
	LevelTrim
	// LevelBias: additionally, the ALB weight bounds ratchet toward the
	// uncongested processor each saturated window.
	LevelBias
	// LevelShed: additionally, admission-rejected aggregates are dropped
	// (accounted as shed) instead of rescued on the CPU.
	LevelShed
)

func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelTrim:
		return "trim"
	case LevelBias:
		return "bias"
	case LevelShed:
		return "shed"
	default:
		return "unknown"
	}
}

// Governor is the per-socket overload state machine. It degrades one level
// after stepDown consecutive saturated windows and recovers one level after
// stepUp consecutive clear windows; either streak resets on the opposite
// observation, so an alternating signal at the boundary holds the level
// steady instead of oscillating. The zero value is a governor at
// LevelNormal.
type Governor struct {
	level       Level
	peak        Level
	satStreak   int
	clearStreak int
}

// Level returns the current degradation level.
func (g *Governor) Level() Level { return g.level }

// Peak returns the most severe level reached so far.
func (g *Governor) Peak() Level { return g.peak }

// Observe folds one saturation observation (one governor window) and
// returns the resulting level and whether this observation changed it.
func (g *Governor) Observe(saturated bool) (Level, bool) {
	if saturated {
		g.clearStreak = 0
		g.satStreak++
		if g.satStreak >= stepDown && g.level < LevelShed {
			g.satStreak = 0
			g.level++
			if g.level > g.peak {
				g.peak = g.level
			}
			return g.level, true
		}
		return g.level, false
	}
	g.satStreak = 0
	g.clearStreak++
	if g.clearStreak >= stepUp && g.level > LevelNormal {
		g.clearStreak = 0
		g.level--
		return g.level, true
	}
	return g.level, false
}

// CoDel is a deterministic CoDel-style shedder on the virtual clock (the
// classic algorithm, with packet sojourn supplied by the caller): once the
// observed sojourn has stayed at or above codelTarget for a full Interval,
// it starts dropping, with successive drops spaced Interval/sqrt(count)
// apart so the drop rate grows until the standing queue drains below the
// target.
//
// math.Sqrt is exactly specified by IEEE 754, so the shedder is bit-stable
// across platforms — it introduces no nondeterminism into the run.
type CoDel struct {
	// Interval is the control interval (Config.CoDelInterval).
	Interval simtime.Time

	firstAbove simtime.Time // when sojourn first exceeded the target; 0 = below
	dropNext   simtime.Time // next scheduled drop while in dropping state
	dropping   bool
	count      int // drops in the current dropping episode
}

// ShouldDrop decides the fate of one packet with the given queueing sojourn
// observed at virtual time now. It must be called in arrival order.
func (c *CoDel) ShouldDrop(now, sojourn simtime.Time) bool {
	if sojourn < codelTarget {
		// Below target: leave the dropping state and restart the grace
		// interval from scratch.
		c.firstAbove = 0
		c.dropping = false
		return false
	}
	if c.firstAbove == 0 {
		// First packet above target: arm the interval, drop nothing yet.
		c.firstAbove = now + c.Interval
		return false
	}
	if !c.dropping {
		if now < c.firstAbove {
			return false // still inside the grace interval
		}
		// Sojourn stayed above target for a full interval: start dropping.
		// Resume the previous episode's drop rate when the queue rebuilt
		// quickly (within 8 intervals), per the reference algorithm.
		c.dropping = true
		if c.count > 2 && now-c.dropNext < 8*c.Interval {
			c.count -= 2
		} else {
			c.count = 1
		}
		c.dropNext = c.controlLaw(now)
		return true
	}
	if now >= c.dropNext {
		c.count++
		c.dropNext = c.controlLaw(c.dropNext)
		return true
	}
	return false
}

// controlLaw spaces the next drop Interval/sqrt(count) after base.
func (c *CoDel) controlLaw(base simtime.Time) simtime.Time {
	return base + simtime.Time(float64(c.Interval)/math.Sqrt(float64(c.count)))
}
