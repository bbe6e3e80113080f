// Package par is the deterministic parallel case runner: a bounded worker
// pool that executes fully independent jobs — one simulation case each, with
// zero shared mutable state between them — across OS threads, collecting
// results into slot-indexed storage so that output order, and therefore
// every digest derived from it, is byte-identical to a serial run regardless
// of GOMAXPROCS or goroutine scheduling.
//
// The determinism argument is structural, not scheduled (DESIGN.md §13):
//
//   - every job is a pure function of its slot index (shared-nothing by
//     construction: callers build one engine, tracer, oracle and mempool per
//     case);
//   - each job writes only its own slot of the result slice, so writes are
//     disjoint and no ordering between jobs is observable;
//   - Run returns only after every worker has exited (WaitGroup barrier), so
//     the caller reads fully-written results with a happens-before edge.
//
// Scheduling order affects only wall-clock time, never the collected value.
// The package deliberately has no futures, no channels of results and no
// completion callbacks: all of those reintroduce observable completion
// order, which is exactly what a deterministic sweep must not depend on.
//
// The System executor (Executor) is the one handle that looks like a
// future, and it keeps completion order unobservable the same way: a job is
// joined, not awaited. The single submitting goroutine calls Join at a fixed
// point of its own program — before it first reads anything the job wrote —
// and Join returns the same results whether the job finished long before or
// only while Join waited. Nothing ever asks which job finished first, and a
// job writes only its own state, so the output is what running each job
// inline at its join point would give.
//
// A best-effort job is the one place where the submitter does learn how far
// a job got: Claim reports whether it withdrew the job before it started.
// That answer may steer only work whose result does not depend on who did
// it. The simulator's RX stages are that: a withdrawn fill, or the rest of
// one stopped part-way, is left to the poll, and every frame is the
// generator's pure function of (port, seq), so which side made a frame, and
// when, shows in no output.
//
// par is a simulation package for nbalint purposes: the goroutines below are
// the single, audited exception to the no-goroutines rule, and the
// sharedstate rule understands par jobs (writes from a job that are not
// slot-indexed and escape the job are findings) and executor jobs, joined
// or best-effort (writes outside the job's receiver are findings).
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers clamps a requested parallelism to an effective worker count:
// values <= 0 select GOMAXPROCS (the number of OS threads the runtime will
// actually run on), and the count never exceeds n, the number of jobs.
func Workers(requested, n int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes job(0) … job(n-1) on at most workers concurrent OS threads
// and returns when all have completed. workers <= 1 (or n <= 1) runs every
// job inline on the calling goroutine with no pool at all — the serial
// fast path is the reference behaviour the parallel path must be
// indistinguishable from.
//
// Jobs are claimed from an atomic cursor, so the assignment of jobs to
// workers is scheduling-dependent; a correct job therefore must not observe
// anything except its own slot. A panicking job stops the pool from claiming
// further jobs and the panic is re-raised on the calling goroutine, wrapped
// with the slot that caused it (when several jobs panic concurrently the
// lowest-numbered slot wins, so the surfaced failure is as reproducible as
// the panic itself).
func Run(n, workers int, job func(slot int)) {
	if n <= 0 {
		return
	}
	if workers = Workers(workers, n); workers == 1 {
		for i := 0; i < n; i++ {
			if val, panicked := safeRun(job, i); panicked {
				panic(fmt.Sprintf("par: job %d panicked: %v", i, val))
			}
		}
		return
	}

	var (
		cursor atomic.Int64
		wg     sync.WaitGroup

		panicMu   sync.Mutex
		panicSlot = -1
		panicVal  any
		aborted   atomic.Bool
	)
	record := func(slot int, val any) {
		panicMu.Lock()
		if panicSlot < 0 || slot < panicSlot {
			panicSlot, panicVal = slot, val
		}
		panicMu.Unlock()
		aborted.Store(true)
	}
	work := func() {
		defer wg.Done()
		for !aborted.Load() {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			if val, panicked := safeRun(job, i); panicked {
				record(i, val)
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		//nbalint:allow nondeterminism par worker pool: jobs are shared-nothing and results slot-indexed, so scheduling order is unobservable (DESIGN.md §13)
		go work()
	}
	wg.Wait()
	if panicSlot >= 0 {
		panic(fmt.Sprintf("par: job %d panicked: %v", panicSlot, panicVal))
	}
}

// safeRun executes one job, converting a panic into a value so both the
// serial and the parallel path surface it identically (wrapped with the
// slot). The deferred recover is open-coded by the compiler, so the
// steady-state dispatch stays allocation-free.
func safeRun(job func(int), i int) (val any, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			val, panicked = r, true
		}
	}()
	job(i)
	return nil, false
}

// Map runs f over n slots at the given parallelism and returns the results
// in slot order. The returned slice is identical — element for element — to
// a serial loop appending f(0) … f(n-1), whatever the worker count.
func Map[T any](n, workers int, f func(slot int) T) []T {
	out := make([]T, n)
	Run(n, workers, func(i int) {
		out[i] = f(i)
	})
	return out
}

// MapErr is Map for fallible jobs. Every job runs to completion regardless
// of other jobs' errors (a sweep wants all outcomes, not the fastest
// failure); the returned error is the lowest-slot error, which makes error
// selection deterministic even when several jobs fail in the same run. The
// result slice is always fully populated for the slots whose jobs returned
// nil errors.
func MapErr[T any](n, workers int, f func(slot int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	Run(n, workers, func(i int) {
		out[i], errs[i] = f(i)
	})
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("par: job %d: %w", i, err)
		}
	}
	return out, nil
}
