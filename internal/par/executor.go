package par

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Job is one unit of executor work.
type Job interface {
	// RunJob does the job's work. The executor calls it at most once, on its
	// own goroutine (a joined job exactly once); until the submitter joins
	// or claims the job it may write only state the job owns.
	RunJob()
}

// Executor is a System's executor: one goroutine that runs jobs one at a
// time, in submission order, beside the one goroutine that submits and joins
// them (a System's event loop). The goroutine starts at the first job, so a
// submitter that never submits never starts one.
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
//
// Besides joined jobs the executor takes best-effort jobs (SubmitBestEffort):
// work the submitter could as well do itself, offered to the executor's idle
// time. One runs only when no joined job is queued, and a job that can stop
// part-way asks Yield whether to, so it delays a joined job or the
// submitter's Claim by little. The submitter settles it with Claim: a job
// that has not started is withdrawn and never runs, one that is running is
// waited for.
type Executor struct {
	mu      sync.Mutex
	queue   []Job // ring of queued jobs: queue[head], … n of them
	head, n int
	// beHead and beTail are the FIFO of queued best-effort jobs, linked
	// through their handles, so queueing one allocates nothing.
	beHead, beTail *BestEffort
	idle           bool // the goroutine is parked on work
	closing        bool

	// submitted is the sequence number of the last submitted job; only the
	// submitter's goroutine touches it and started.
	submitted uint64
	started   bool

	pending  atomic.Int64  // joined jobs queued and not started
	done     atomic.Uint64 // jobs run
	waiting  atomic.Uint64 // the seq a parked Join waits for, 0 when none
	panicked atomic.Uint64 // seq of the first job that panicked, 0 when none
	panicVal any           // written before panicked is set
	// claiming is the best-effort job a parked Claim waits for, nil when
	// none; bePanicked is set once a best-effort job panicked, after beVal.
	claiming   atomic.Pointer[BestEffort]
	bePanicked atomic.Bool
	beVal      any

	work   chan struct{} // wakes the parked goroutine (one token)
	joined chan struct{} // wakes a parked Join or Claim (one token)
	exited chan struct{} // closed when the goroutine returns
	loopFn func()        // e.loop, bound once so starting allocates nothing
}

// BestEffort is the handle of a best-effort job. The submitter owns it and
// reuses it: after Claim returns it may submit it again, with the same job or
// another. Its zero value is a handle never submitted.
type BestEffort struct {
	job   Job
	state atomic.Uint32 // beIdle, beQueued, beRunning
	// queued and next are the handle's place in the executor's FIFO,
	// guarded by the executor's mu. A withdrawn job keeps its place until
	// the goroutine pops it, so a resubmission may find it still queued.
	queued bool
	next   *BestEffort
}

// Best-effort job states. A job is withdrawn (Claim) or run (the executor)
// by whichever side moves it out of beQueued first; both leave beIdle.
const (
	beIdle uint32 = iota
	beQueued
	beRunning
)

// Prepare makes what the goroutine needs, so that starting it at the first
// job allocates nothing; a caller that times its submissions prepares the
// executor before. It does not start the goroutine.
func (e *Executor) Prepare() {
	if e.loopFn != nil {
		return
	}
	e.work = make(chan struct{}, 1)
	e.joined = make(chan struct{}, 1)
	e.exited = make(chan struct{})
	e.loopFn = e.loop
}

// start starts the goroutine, at the first job of either kind.
func (e *Executor) start() {
	if e.started {
		return
	}
	e.started = true
	e.Prepare()
	//nbalint:allow nondeterminism System executor: a job touches only its own state and is joined (or claimed) before anything reads it, so completion order is unobservable (DESIGN.md §13)
	go e.loopFn()
}

// Submit queues j and returns its sequence number, the handle Join takes.
// The caller must not touch what j writes until Join returns, nor submit
// after Close.
func (e *Executor) Submit(j Job) uint64 {
	e.start()
	e.submitted++
	e.mu.Lock()
	if e.n == len(e.queue) {
		e.grow()
	}
	e.queue[(e.head+e.n)%len(e.queue)] = j
	e.n++
	e.pending.Add(1)
	e.wakeLocked()
	return e.submitted
}

// SubmitBestEffort queues j as a best-effort job under h: the goroutine runs
// it once no joined job is queued, unless Claim withdraws it first. The
// caller must not touch what j writes until Claim(h) returns, must not
// submit h again before that, and must not submit after Close.
func (e *Executor) SubmitBestEffort(h *BestEffort, j Job) {
	e.start()
	e.mu.Lock()
	h.job = j
	h.state.Store(beQueued)
	if !h.queued {
		h.queued = true
		if e.beTail == nil {
			e.beHead = h
		} else {
			e.beTail.next = h
		}
		e.beTail = h
	}
	e.wakeLocked()
}

// wakeLocked ends a submission: it releases mu and wakes the goroutine if it
// is parked.
func (e *Executor) wakeLocked() {
	wake := e.idle
	e.idle = false
	e.mu.Unlock()
	if wake {
		e.work <- struct{}{}
	}
}

// Claim settles h's job: one not started yet is withdrawn and will never
// run, and Claim reports true; one running is waited for; one that ran, or a
// handle never submitted, returns at once. Either way the job is not running
// when Claim returns, and what it wrote, if it ran, is the caller's to read.
func (e *Executor) Claim(h *BestEffort) bool {
	if h.state.CompareAndSwap(beQueued, beIdle) {
		return true
	}
	if h.state.Load() == beRunning {
		e.claiming.Store(h)
		// Withdraw the wait if the job finished meanwhile, unless the
		// goroutine already took it: then its token is on the way.
		if h.state.Load() == beRunning || !e.claiming.CompareAndSwap(h, nil) {
			<-e.joined
		}
	}
	return false
}

// grow doubles the ring, unrolling it to start at index 0. mu is held.
func (e *Executor) grow() {
	q := make([]Job, max(8, 2*len(e.queue)))
	for i := 0; i < e.n; i++ {
		q[i] = e.queue[(e.head+i)%len(e.queue)]
	}
	e.queue, e.head = q, 0
}

// Yield reports whether a best-effort job under h that can stop part-way
// should stop now: a joined job is queued behind it, or a Claim waits for
// it.
func (e *Executor) Yield(h *BestEffort) bool {
	return e.pending.Load() > 0 || e.claiming.Load() == h
}

// Join returns once job seq has run; seq 0, the handle of no job, returns at
// once. A panic of any job up to seq, or of any best-effort job that ran, is
// re-raised here.
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
	if e.bePanicked.Load() {
		panic(fmt.Sprintf("par: best-effort job panicked: %v", e.beVal))
	}
}

// Close runs every queued joined job, drops the queued best-effort ones,
// stops the goroutine and waits for it to exit (a best-effort job running
// finishes first), then re-raises a job's panic that no Join did. An
// executor that never started closes at once.
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

// loop is the executor goroutine: take the oldest joined job, run it,
// publish its completion, wake a Join that waits for it; with no joined job
// queued, run the oldest best-effort job nobody withdrew.
func (e *Executor) loop() {
	defer close(e.exited)
	for seq := uint64(1); ; {
		e.mu.Lock()
		for e.n == 0 && (e.beHead == nil || e.closing) {
			if e.closing {
				e.dropBestEffort()
				e.mu.Unlock()
				return
			}
			e.idle = true
			e.mu.Unlock()
			<-e.work
			e.mu.Lock()
		}
		if e.n == 0 {
			h := e.beHead
			e.beHead, h.next, h.queued = h.next, nil, false
			if e.beHead == nil {
				e.beTail = nil
			}
			e.mu.Unlock()
			e.runBestEffort(h)
			continue
		}
		j := e.queue[e.head]
		e.queue[e.head] = nil
		e.head = (e.head + 1) % len(e.queue)
		e.n--
		e.pending.Add(-1)
		e.mu.Unlock()
		if val, panicked := runJob(j); panicked && e.panicked.Load() == 0 {
			e.panicVal = val
			e.panicked.Store(seq)
		}
		e.done.Store(seq)
		if w := e.waiting.Load(); w != 0 && w <= seq && e.waiting.CompareAndSwap(w, 0) {
			e.joined <- struct{}{}
		}
		seq++
	}
}

// runBestEffort runs a best-effort job unless Claim withdrew it, then wakes a
// Claim that waits for it.
func (e *Executor) runBestEffort(h *BestEffort) {
	if !h.state.CompareAndSwap(beQueued, beRunning) {
		return
	}
	if val, panicked := runJob(h.job); panicked && !e.bePanicked.Load() {
		e.beVal = val
		e.bePanicked.Store(true)
	}
	h.state.Store(beIdle)
	if e.claiming.Load() == h && e.claiming.CompareAndSwap(h, nil) {
		e.joined <- struct{}{}
	}
}

// dropBestEffort unlinks every queued best-effort job at exit; a later Claim
// withdraws it. mu is held.
func (e *Executor) dropBestEffort() {
	for h := e.beHead; h != nil; {
		next := h.next
		h.next, h.queued = nil, false
		h = next
	}
	e.beHead, e.beTail = nil, nil
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
