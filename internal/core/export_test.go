package core

import (
	"nba/internal/fault"
	"nba/internal/simtime"
)

// SetParking turns worker parking on or off for the Systems built until
// the returned function restores the previous setting. Off, every worker
// polls on its IdlePoll grid, as before parking existed.
func SetParking(on bool) (restore func()) {
	old := parkingOff
	parkingOff = !on
	return func() { parkingOff = old }
}

// SetPacketPool sizes each worker's packet mempool (n = 0 keeps the current
// size) for the Systems built until the returned function restores the
// previous size.
func SetPacketPool(n int) (restore func()) {
	old := packetPoolPerWorker
	if n > 0 {
		packetPoolPerWorker = n
	}
	return func() { packetPoolPerWorker = old }
}

// ObserveRuns installs fn as the run observer (see observeRun) until the
// returned function removes it.
func ObserveRuns(fn func(cfg *Config, r *Report)) (restore func()) {
	old := observeRun
	observeRun = fn
	return func() { observeRun = old }
}

// ReportGoldenCases returns TestReportGolden's configurations by name, with
// each case's packet pool size (0: the default; see SetPacketPool).
func ReportGoldenCases() (names []string, pools []int, cfgs []func() Config) {
	for _, c := range reportGoldenCases() {
		names = append(names, c.name)
		pools = append(pools, c.pool)
		cfgs = append(cfgs, c.cfg)
	}
	return names, pools, cfgs
}

// Engine exposes the System's event engine, so a test can schedule its own
// events against the workers'.
func (s *System) Engine() *simtime.Engine { return s.eng }

// WorkerClock reads worker i's clock as a callback outside a pass would:
// its pass start and its position in virtual time. A parked worker reads
// as the last pass it skipped would have left it: that pass's start, the
// last grid point not after now, and its CompletionPoll cycles. A grid
// point equal to now counts if its pass would already have run this
// instant, as in unpark. parked reports whether the worker is parked.
func WorkerClock(s *System, i int) (start, now simtime.Time, parked bool) {
	w := s.workers[i]
	start, cycles := w.iterStart, w.cycles
	if w.parked {
		idle := s.cfg.CostModel.IdlePoll
		t := s.eng.Now()
		k := (t - w.parkBase) / idle
		if k > 0 && w.parkBase+k*idle == t && s.eng.RunningAsOf() <= t-idle {
			k--
		}
		if k > 0 {
			start, cycles = w.parkBase+k*idle, s.cfg.CostModel.CompletionPoll
		}
	}
	return start, start + simtime.CyclesToTime(cycles, s.cfg.Topology.CoreFreqHz), w.parked
}

// ApplyFault applies one fault-plan event at the current instant.
func ApplyFault(s *System, ev fault.Event) { s.faults.apply(s, ev) }

// ChurnCfg is the canonical admit, retune and evict scenario (churnCfg).
func ChurnCfg(app string) Config { return churnCfg(app) }

// WorkerTasks reports whether worker i is parked and how many device tasks
// it has out.
func WorkerTasks(s *System, i int) (parked bool, tasks int) {
	return s.workers[i].parked, len(s.workers[i].dev.tasks)
}

// WorkerWake returns the time worker i's armed wake fires at, 0 if none.
func WorkerWake(s *System, i int) simtime.Time { return s.workers[i].wakeAt }

// ParkDeadline returns the deadline a pass of worker i ending now would
// park until (worker.parkDeadline), from state that is the same whether
// parking is on or off.
func ParkDeadline(s *System, i int) (simtime.Time, bool) { return s.workers[i].parkDeadline() }
