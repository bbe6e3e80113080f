// Package execfix exercises the sharedstate rule on device-executor job
// roots: a job submitted to a par.Executor runs its RunJob on the executor's
// goroutine while the submitter goes on, so until it is joined it may write
// only what it owns — its receiver, the job's slot. The package path mimics
// a simulation package so outside readers are flagged; package reader reads
// the results from another simulation package.
package execfix

import "nba/internal/par"

// Job doubles and triples its input into its own result fields.
type Job struct {
	In  int
	Out [2]int
	// Shared points at a tally every job of a batch writes.
	Shared *Tally
}

// Tally is state shared between jobs.
type Tally struct{ N int }

// runs counts jobs in a package-level variable: the executor's goroutine
// writes it while the submitter may read it.
var runs int

// RunJob writes its own slot — fields of the receiver — which is exempt,
// and a package-level counter and a tally behind a pointer, which are not.
func (j *Job) RunJob() {
	j.Out[0] = j.In * 2
	j.Out[1] = j.In * 3
	runs++       // want sharedstate
	j.Shared.N++ // want sharedstate
}

// Run submits every job and joins each.
func Run(e *par.Executor, jobs []*Job) {
	for _, j := range jobs {
		e.Join(e.Submit(j))
	}
}

// Runs reads the raced counter outside job context.
func Runs() int { return runs }
