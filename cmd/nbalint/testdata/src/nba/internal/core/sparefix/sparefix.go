// Package sparefix exercises the sharedstate rule on best-effort executor
// jobs: a job handed to (*par.Executor).SubmitBestEffort runs its RunJob on
// the executor's goroutine until the submitter claims it, so like a joined
// job it may write only its receiver, the job's slot. The package path
// mimics a simulation package so outside readers are flagged; package
// reader reads the results from another simulation package.
package sparefix

import "nba/internal/par"

// Fill is a best-effort job that materialises a burst into its own buffer.
type Fill struct {
	Seq   int
	Frame [4]int
	N     int
	// Tally points at a count every fill of a worker shares.
	Tally *Tally
}

// Tally is state shared between jobs.
type Tally struct{ N int }

// fills counts best-effort runs in a package-level variable the event loop
// may read while the executor writes it.
var fills int

// RunJob writes its own slot, which is exempt, and a package-level counter
// and a tally behind a pointer, which are not.
func (f *Fill) RunJob() {
	f.Frame[0] = f.Seq
	f.N = len(f.Frame)
	fills++     // want sharedstate
	f.Tally.N++ // want sharedstate
}

// Offer hands f to the executor's idle time and settles it before reading.
func Offer(e *par.Executor, h *par.BestEffort, f *Fill) int {
	e.SubmitBestEffort(h, f)
	e.Claim(h)
	return f.N
}

// Fills reads the raced counter outside job context.
func Fills() int { return fills }
