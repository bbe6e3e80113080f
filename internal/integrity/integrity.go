// Package integrity is the silent-data-corruption detection and containment
// subsystem: deterministic sentinel re-execution of sampled offloaded
// aggregates, quarantine of mismatched batches, and per-device escalation.
//
// The threat model is a co-processor that completes tasks on time but
// returns wrong bytes (internal/fault's DeviceCorrupt events model it). The
// framework cannot eyeball device results, but it *can* re-run the same
// functional closure on the host — the simulation's device kernels are the
// elements' Kernel methods, which are pure over (packet bytes,
// annotations, results) — and compare digests. The sentinel does exactly
// that for a configured fraction of aggregates:
//
//	flush     — the worker draws a per-aggregate coin from a seeded
//	            per-worker stream; sampled aggregates get a byte-level
//	            snapshot (a Shadow) taken before submission;
//	complete  — after the device's Execute ran, the worker re-executes the
//	            offloaded chain on the shadow copy and compares FNV-1a
//	            digests over (mask, result, length, payload, annotations);
//	mismatch  — the aggregate is quarantined: counted in a dedicated drop
//	            class (QuarantinedPackets), never transmitted, and the
//	            device's EWMA corruption score is bumped.
//
// Escalation reuses the machinery the framework already trusts: a score
// crossing demoteScore ratchets the ALB weight bounds toward the CPU
// (lb.Controller.SetWBounds, the overload governor's bias mechanism); a
// score crossing failScore fail-stops the device through its fault health
// state, and a recovery probe re-admits it after a fixed delay (core's
// probeAfter).
//
// Everything is deterministic: the sampling stream is seeded from the run
// seed, re-execution happens at task-completion dispatch on the serial
// virtual clock, and a nil Config disarms the whole subsystem with zero
// extra events (the disarm contract — golden digests are byte-identical).
package integrity

import (
	"fmt"

	"nba/internal/batch"
	"nba/internal/packet"
	"nba/internal/rng"
)

// Config arms the integrity subsystem (core.Config.Integrity). A nil Config
// disarms it entirely.
type Config struct {
	// SampleRate is the fraction of offloaded aggregates the sentinel
	// re-executes on the CPU, in [0, 1]. 0 arms the subsystem without
	// sampling (accounting fields exist but stay zero); 1 checks every
	// aggregate.
	SampleRate float64
}

// The per-device corruption score is an EWMA, score = alpha*observation +
// (1-alpha)*score, with observation 1 on a mismatch and 0 on a match. At
// alpha 0.5 the first mismatch scores 0.5, crossing demoteScore, and the
// third consecutive one scores 0.875, crossing failScore: one bad aggregate
// steers traffic away, three in a row take the device out of service.
const (
	alpha       float64 = 0.5
	demoteScore float64 = 0.4
	failScore   float64 = 0.85
)

// Validate rejects configurations the subsystem cannot honour.
func (c *Config) Validate() error {
	if !(c.SampleRate >= 0 && c.SampleRate <= 1) { // the negated form also rejects NaN
		return fmt.Errorf("integrity: sample rate %v outside [0,1]", c.SampleRate)
	}
	return nil
}

// Shadow is a byte-level snapshot of an aggregate's batches taken before
// submission, re-executed on the CPU at completion time. A shadow owns its
// storage, not the run's accounted mempools (shadows are observer state,
// invisible to pool-drain accounting): a packet arena and a batch arena,
// grown only when an aggregate is larger than any the shadow has held.
// Released shadows wait on a free list that outlives the sentinel (core
// keeps one per worker in the System's zone, so the next System of the same
// shape reuses them). Every shadow in use is attached to an in-flight
// aggregate of pool batches, so a drained batch pool means none is in use.
type Shadow struct {
	pkts    []*packet.Packet // slots of the packet arena, in fill order
	batches []*batch.Batch   // slots of the batch arena
	srcs    []*batch.Batch
}

// grow extends an arena to n slots by one chunk of the shortfall. Slots
// already there stay in place, so growing copies and discards nothing, and
// a shadow that has held a larger aggregate allocates nothing.
func grow[T any](slots []*T, n int) []*T {
	if n > len(slots) {
		chunk := make([]T, n-len(slots))
		for i := range chunk {
			slots = append(slots, &chunk[i])
		}
	}
	return slots
}

// Sentinel is one worker's re-execution sampler. A nil *Sentinel is a valid
// disarmed sentinel: every method is a cheap no-op, mirroring the
// trace.Tracer contract, so worker call sites need no conditionals.
type Sentinel struct {
	cfg  *Config
	r    *rng.Rand
	free *[]*Shadow

	// Checks / Mismatches count sentinel comparisons and digest
	// disagreements for this worker.
	Checks     uint64
	Mismatches uint64
}

// NewSentinel creates a sentinel drawing its sampling coins from r (a
// seeded per-worker stream, so sampling is part of the run identity) and
// its shadows from free, to which Release returns them.
func NewSentinel(cfg *Config, r *rng.Rand, free *[]*Shadow) *Sentinel {
	return &Sentinel{cfg: cfg, r: r, free: free}
}

// Sample draws the per-aggregate sampling coin. Safe on a nil sentinel
// (never samples, draws nothing).
//
//nba:hotpath
func (s *Sentinel) Sample() bool {
	if s == nil || s.cfg.SampleRate == 0 {
		return false
	}
	return s.r.Float64() < s.cfg.SampleRate
}

// Snapshot copies the live slots of the aggregate's batches — payload,
// length, annotations, results, mask pattern — into a shadow from the free
// list. The returned Shadow must be handed back via Verify or Release.
func (s *Sentinel) Snapshot(batches []*batch.Batch) *Shadow {
	var sh *Shadow
	if free := *s.free; len(free) > 0 {
		sh, *s.free = free[len(free)-1], free[:len(free)-1]
	} else {
		sh = &Shadow{}
	}
	n := 0
	for _, src := range batches {
		n += src.Count()
	}
	sh.pkts = grow(sh.pkts, n)
	sh.batches = grow(sh.batches, len(batches))
	n = 0
	for k, src := range batches {
		cp := sh.batches[k]
		for i := 0; i < src.Count(); i++ {
			p := sh.pkts[n]
			n++
			if orig := src.Packet(i); orig != nil {
				p.CopyFrom(orig.Data())
				p.Anno = orig.Anno
			}
			cp.Add(p)
			cp.SetResult(i, src.Result(i))
			if src.IsMasked(i) {
				cp.Mask(i)
			}
		}
	}
	sh.srcs = append(sh.srcs, batches...)
	return sh
}

// Verify re-executes the offloaded chain on the shadow via rerun (the
// caller runs its chain's kernels over each shadow batch) and
// compares digests against the device's results. The shadow is released
// either way. Returns true when the digests agree.
func (s *Sentinel) Verify(sh *Shadow, rerun func(*batch.Batch)) bool {
	s.Checks++ //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
	shadows := sh.batches[:len(sh.srcs)]
	for _, b := range shadows {
		rerun(b)
	}
	match := true
	for i, src := range sh.srcs {
		if digestBatch(src) != digestBatch(shadows[i]) {
			match = false
			break
		}
	}
	s.Release(sh)
	if !match {
		s.Mismatches++ //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
	}
	return match
}

// Release resets the used prefix of a shadow's arenas and returns it to the
// free list without verifying (used when the task never executed on the
// device: CPU fallback, device failure).
func (s *Sentinel) Release(sh *Shadow) {
	if s == nil || sh == nil {
		return
	}
	for _, b := range sh.batches[:len(sh.srcs)] {
		for j := 0; j < b.Count(); j++ {
			b.Packet(j).Reset()
		}
		b.Reset()
	}
	sh.srcs = sh.srcs[:0]
	*s.free = append(*s.free, sh)
}

// digestBatch folds one batch's observable processing state — per-slot mask
// bit, result, frame length, payload bytes and annotations — into an FNV-1a
// digest. Two batches that digest equal produced indistinguishable results.
//
//nba:hotpath
func digestBatch(b *batch.Batch) uint64 {
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for i := 0; i < b.Count(); i++ {
		if b.IsMasked(i) {
			h ^= 0xa5
			h *= prime64
			continue
		}
		h = fnvWord(h, uint64(int64(b.Result(i))))
		p := b.Packet(i)
		h = fnvWord(h, uint64(p.Length()))
		for _, by := range p.Data() {
			h ^= uint64(by)
			h *= prime64
		}
		for _, a := range p.Anno {
			h = fnvWord(h, a)
		}
	}
	return h
}

// fnvWord folds one 64-bit word into an FNV-1a digest, little-endian.
//
//nba:hotpath
func fnvWord(h, v uint64) uint64 {
	const prime64 = 0x100000001b3
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	return h
}

// Action is what the tracker asks the system to do after an observation.
type Action uint8

const (
	// ActionNone requires no escalation.
	ActionNone Action = iota
	// ActionDemote ratchets the device's ALB weight bounds toward the CPU.
	ActionDemote
	// ActionFailStop fail-stops the device through its fault health state
	// and schedules a recovery probe.
	ActionFailStop
)

// Tracker keeps the per-device EWMA corruption scores and decides
// escalation. One tracker serves the whole run (device indices are global).
type Tracker struct {
	devs []deviceScore
}

// deviceScore is one device's corruption state.
type deviceScore struct {
	score   float64
	consec  int  // consecutive mismatches
	demoted bool // ActionDemote was returned since the last readmit
	failed  bool // ActionFailStop was returned since the last readmit
}

// NewTracker creates a tracker for ndev devices.
func NewTracker(ndev int) *Tracker { return &Tracker{devs: make([]deviceScore, ndev)} }

// Observe folds one sentinel check result into dev's score and returns the
// escalation the system must apply. Observations against a fail-stopped
// device (completions already in flight when it was stopped) are ignored.
func (t *Tracker) Observe(dev int, mismatch bool) Action {
	d := &t.devs[dev]
	if d.failed {
		return ActionNone
	}
	x := 0.0
	if mismatch {
		x = 1.0
		d.consec++
	} else {
		d.consec = 0
	}
	d.score = alpha*x + (1-alpha)*d.score
	switch {
	case d.score >= failScore:
		d.failed = true
		return ActionFailStop
	case d.score >= demoteScore && !d.demoted:
		d.demoted = true
		return ActionDemote
	}
	return ActionNone
}

// Score returns dev's current EWMA corruption score.
func (t *Tracker) Score(dev int) float64 { return t.devs[dev].score }

// Consecutive returns dev's current run of consecutive mismatches.
func (t *Tracker) Consecutive(dev int) int { return t.devs[dev].consec }

// FailStopped reports whether dev is currently fail-stopped by the tracker.
func (t *Tracker) FailStopped(dev int) bool { return t.devs[dev].failed }

// Readmit clears dev's state after a recovery probe: the device starts over
// with a clean score and its weight bounds restored by the caller.
func (t *Tracker) Readmit(dev int) { t.devs[dev] = deviceScore{} }
