package par

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Job is one unit of device-executor work.
type Job interface {
	// RunJob does the job's work. The executor calls it exactly once, on its
	// own goroutine; until the submitter joins the job it may write only
	// state the job owns.
	RunJob()
}

// Executor is the device executor: one goroutine that runs jobs one at a
// time, in submission order, beside the one goroutine that submits and joins
// them (a System's event loop). The goroutine starts at the first Submit, so
// a submitter that never submits never starts one.
//
// Completion is a counter, not a channel or a closure per job: jobs finish in
// FIFO order, so job seq has run exactly when done >= seq. Join parks on a
// one-token wake channel only when its job has not run yet. Nothing is
// allocated per job; the queue is a ring that grows by doubling and is then
// reused.
//
// The submitter joins a job before it reads anything the job wrote, at a
// point of its own program order. When the job finished on the other core —
// long before, or while Join waited — is therefore unobservable, which is
// what keeps the executor inside the package's no-completion-order rule.
type Executor struct {
	mu      sync.Mutex
	queue   []Job // ring of queued jobs: queue[head], … n of them
	head, n int
	idle    bool // the goroutine is parked on work
	closing bool

	// submitted is the sequence number of the last submitted job; only the
	// submitter's goroutine touches it and started.
	submitted uint64
	started   bool

	done     atomic.Uint64 // jobs run
	waiting  atomic.Uint64 // the seq a parked Join waits for, 0 when none
	panicked atomic.Uint64 // seq of the first job that panicked, 0 when none
	panicVal any           // written before panicked is set

	work   chan struct{} // wakes the parked goroutine (one token)
	joined chan struct{} // wakes a parked Join (one token)
	exited chan struct{} // closed when the goroutine returns
}

// Submit queues j and returns its sequence number, the handle Join takes.
// The caller must not touch what j writes until Join returns, nor submit
// after Close.
func (e *Executor) Submit(j Job) uint64 {
	if !e.started {
		e.started = true
		e.work = make(chan struct{}, 1)
		e.joined = make(chan struct{}, 1)
		e.exited = make(chan struct{})
		//nbalint:allow nondeterminism device executor: a job touches only its own aggregate and is joined before anything reads it, so completion order is unobservable (DESIGN.md §13)
		go e.loop()
	}
	e.submitted++
	e.mu.Lock()
	if e.n == len(e.queue) {
		e.grow()
	}
	e.queue[(e.head+e.n)%len(e.queue)] = j
	e.n++
	wake := e.idle
	e.idle = false
	e.mu.Unlock()
	if wake {
		e.work <- struct{}{}
	}
	return e.submitted
}

// grow doubles the ring, unrolling it to start at index 0. mu is held.
func (e *Executor) grow() {
	q := make([]Job, max(8, 2*len(e.queue)))
	for i := 0; i < e.n; i++ {
		q[i] = e.queue[(e.head+i)%len(e.queue)]
	}
	e.queue, e.head = q, 0
}

// Join returns once job seq has run; seq 0, the handle of no job, returns at
// once. A panic of any job up to seq is re-raised here.
func (e *Executor) Join(seq uint64) {
	if e.done.Load() < seq {
		e.waiting.Store(seq)
		// Withdraw the wait if the job ran meanwhile, unless the goroutine
		// already claimed it: then its token is on the way.
		if e.done.Load() < seq || !e.waiting.CompareAndSwap(seq, 0) {
			<-e.joined
		}
	}
	if p := e.panicked.Load(); p != 0 && p <= seq {
		panic(fmt.Sprintf("par: device job %d panicked: %v", p, e.panicVal))
	}
}

// Close runs every queued job, stops the goroutine and waits for it to exit,
// then re-raises a job's panic that no Join did. An executor that never
// started closes at once.
func (e *Executor) Close() {
	if !e.started {
		return
	}
	e.mu.Lock()
	e.closing = true
	wake := e.idle
	e.idle = false
	e.mu.Unlock()
	if wake {
		e.work <- struct{}{}
	}
	<-e.exited
	e.Join(e.submitted)
}

// loop is the executor goroutine: take the oldest job, run it, publish its
// completion, wake a Join that waits for it.
func (e *Executor) loop() {
	defer close(e.exited)
	for seq := uint64(1); ; seq++ {
		e.mu.Lock()
		for e.n == 0 {
			if e.closing {
				e.mu.Unlock()
				return
			}
			e.idle = true
			e.mu.Unlock()
			<-e.work
			e.mu.Lock()
		}
		j := e.queue[e.head]
		e.queue[e.head] = nil
		e.head = (e.head + 1) % len(e.queue)
		e.n--
		e.mu.Unlock()
		if val, panicked := runJob(j); panicked && e.panicked.Load() == 0 {
			e.panicVal = val
			e.panicked.Store(seq)
		}
		e.done.Store(seq)
		if w := e.waiting.Load(); w != 0 && w <= seq && e.waiting.CompareAndSwap(w, 0) {
			e.joined <- struct{}{}
		}
	}
}

// runJob runs one job, converting a panic into a value so that it surfaces
// on the submitter's goroutine, as safeRun does for the pool.
func runJob(j Job) (val any, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			val, panicked = r, true
		}
	}()
	j.RunJob()
	return nil, false
}
