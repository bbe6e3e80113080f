package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// logJob appends its id to a log that only the executor's goroutine writes
// until the test has joined every job.
type logJob struct {
	id  int
	log *[]int
}

func (j *logJob) RunJob() { *j.log = append(*j.log, j.id) }

// squareJob writes its result into its own field.
type squareJob struct{ in, out int }

func (j *squareJob) RunJob() { j.out = j.in * j.in }

type panicJob struct{}

func (panicJob) RunJob() { panic("kaput") }

// goroutinesBack waits for the goroutine count to fall back to n: a
// goroutine that closed its exit channel may still be counted for a moment.
func goroutinesBack(t *testing.T, n int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > n; i++ {
		if i == 1000 {
			t.Fatalf("%d goroutines, want %d: the executor did not exit", runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecutorRunsInSubmissionOrder: jobs run one at a time, FIFO, and a
// joined job's writes are visible to the joiner.
func TestExecutorRunsInSubmissionOrder(t *testing.T) {
	var e Executor
	var log []int
	jobs := make([]logJob, 200)
	for i := range jobs {
		jobs[i] = logJob{id: i, log: &log}
		if seq := e.Submit(&jobs[i]); seq != uint64(i+1) {
			t.Fatalf("job %d got seq %d, want %d", i, seq, i+1)
		}
	}
	e.Join(uint64(len(jobs)))
	for i, id := range log {
		if id != i {
			t.Fatalf("log[%d] = %d: jobs ran out of submission order", i, id)
		}
	}
	if len(log) != len(jobs) {
		t.Fatalf("%d jobs ran, want %d", len(log), len(jobs))
	}
	e.Close()
}

// TestExecutorJoinInterleaved joins each job right after submitting it and
// again long after, the two shapes a worker's completion path takes.
func TestExecutorJoinInterleaved(t *testing.T) {
	var e Executor
	defer e.Close()
	jobs := make([]squareJob, 1000)
	seqs := make([]uint64, len(jobs))
	for i := range jobs {
		jobs[i].in = i
		seqs[i] = e.Submit(&jobs[i])
		if i%3 == 0 {
			e.Join(seqs[i])
			if jobs[i].out != i*i {
				t.Fatalf("job %d: out %d after Join", i, jobs[i].out)
			}
		}
	}
	for i := len(jobs) - 1; i >= 0; i-- {
		e.Join(seqs[i])
		if jobs[i].out != i*i {
			t.Fatalf("job %d: out %d after Join", i, jobs[i].out)
		}
	}
	e.Join(0)
}

// TestExecutorUnstartedStartsNothing: an executor nobody submits to starts
// no goroutine, and Join(0) and Close return at once.
func TestExecutorUnstartedStartsNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	var e Executor
	e.Join(0)
	e.Close()
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("%d goroutines after an unused executor, want %d", n, before)
	}
}

// TestExecutorCloseDrains: Close runs every queued job nobody joined and
// leaves no goroutine behind.
func TestExecutorCloseDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	var e Executor
	jobs := make([]squareJob, 64)
	for i := range jobs {
		jobs[i].in = i + 1
		e.Submit(&jobs[i])
	}
	e.Close()
	for i := range jobs {
		if jobs[i].out != (i+1)*(i+1) {
			t.Fatalf("job %d never ran before Close returned", i)
		}
	}
	goroutinesBack(t, before)
}

// TestExecutorPanicSurfacesAtJoin: a job's panic is re-raised, with its
// sequence number, on the goroutine that joins it or any later job, and
// again at Close; the jobs after it still run.
func TestExecutorPanicSurfacesAtJoin(t *testing.T) {
	expectPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "device job 2 panicked: kaput") {
				t.Errorf("%s: panic %q, want device job 2 / kaput", what, msg)
			}
		}()
		f()
	}
	var e Executor
	first, after := &squareJob{in: 3}, &squareJob{in: 4}
	e.Submit(first)
	e.Submit(panicJob{})
	e.Submit(after)
	e.Join(1)
	expectPanic("Join(2)", func() { e.Join(2) })
	expectPanic("Join(3)", func() { e.Join(3) })
	if first.out != 9 || after.out != 16 {
		t.Errorf("outs %d, %d: the jobs around the panic did not run", first.out, after.out)
	}
	expectPanic("Close", e.Close)
}

// TestExecutorSteadyStateAllocFree: once the ring has grown, a submit and a
// join allocate nothing.
func TestExecutorSteadyStateAllocFree(t *testing.T) {
	var e Executor
	defer e.Close()
	j := &squareJob{in: 7}
	for i := 0; i < 16; i++ {
		e.Submit(j)
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Join(e.Submit(j)) }); allocs != 0 {
		t.Errorf("Submit+Join allocates %.2f times, want 0", allocs)
	}
}

// gateJob blocks on its gate until the test opens it, so the test can hold
// the executor busy; started is closed when it begins.
type gateJob struct {
	started, gate chan struct{}
	ran           atomic.Int32
}

func newGateJob() *gateJob {
	return &gateJob{started: make(chan struct{}), gate: make(chan struct{})}
}

func (j *gateJob) RunJob() {
	close(j.started)
	<-j.gate
	j.ran.Add(1)
}

// countJob counts its runs.
type countJob struct{ ran atomic.Int32 }

func (j *countJob) RunJob() { j.ran.Add(1) }

// orderJob appends its name to a log shared by the executor's jobs; the
// test reads it only after Close.
type orderJob struct {
	name string
	log  *[]string
}

func (j *orderJob) RunJob() { *j.log = append(*j.log, j.name) }

// TestBestEffortYieldsToJoinedJobs: a best-effort job never runs while a
// joined job is queued: queued before two joined jobs, it runs after both.
func TestBestEffortYieldsToJoinedJobs(t *testing.T) {
	var e Executor
	var log []string
	gate := newGateJob()
	e.Submit(gate)
	<-gate.started
	var h BestEffort
	e.SubmitBestEffort(&h, &orderJob{"spare", &log})
	e.Submit(&orderJob{"joined-1", &log})
	e.Submit(&orderJob{"joined-2", &log})
	close(gate.gate)
	e.Join(3)
	for i := 0; h.state.Load() != beIdle; i++ {
		if i == 1000 {
			t.Fatal("the best-effort job never ran on an idle executor")
		}
		time.Sleep(time.Millisecond)
	}
	if e.Claim(&h) {
		t.Fatal("Claim withdrew a job that ran")
	}
	e.Close()
	want := "joined-1 joined-2 spare"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("run order %q, want %q", got, want)
	}
}

// TestBestEffortRunsAtMostOnce: a job is either withdrawn by Claim, and
// then the caller runs it, or run by the executor — never both, never
// neither — and Claim returns only once it is not running.
func TestBestEffortRunsAtMostOnce(t *testing.T) {
	var e Executor
	defer e.Close()
	hs := make([]BestEffort, 4)
	jobs := make([]countJob, 4000)
	for i := range jobs {
		h := &hs[i%len(hs)]
		e.SubmitBestEffort(h, &jobs[i])
		if i%len(hs) == len(hs)-1 {
			for k := range hs {
				j := &jobs[i-len(hs)+1+k]
				if e.Claim(&hs[k]) {
					j.RunJob() // withdrawn: the caller's to run
				}
				if n := j.ran.Load(); n != 1 {
					t.Fatalf("job %d ran %d times after its claim", i-len(hs)+1+k, n)
				}
			}
		}
	}
	if e.Claim(&BestEffort{}) {
		t.Error("Claim withdrew a job from a handle never submitted")
	}
}

// TestCloseDropsQueuedBestEffort: Close returns with best-effort jobs still
// queued without running them; a later Claim withdraws them.
func TestCloseDropsQueuedBestEffort(t *testing.T) {
	before := runtime.NumGoroutine()
	var e Executor
	gate := newGateJob()
	e.Submit(gate)
	<-gate.started
	var h BestEffort
	spare := &countJob{}
	e.SubmitBestEffort(&h, spare)
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	for {
		e.mu.Lock()
		closing := e.closing
		e.mu.Unlock()
		if closing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.gate)
	<-closed
	if n := spare.ran.Load(); n != 0 {
		t.Errorf("the queued best-effort job ran %d times during Close", n)
	}
	if !e.Claim(&h) {
		t.Error("Claim after Close did not withdraw the dropped job")
	}
	goroutinesBack(t, before)
}

// TestCloseWaitsForRunningBestEffort: Close waits for a best-effort job that
// has started.
func TestCloseWaitsForRunningBestEffort(t *testing.T) {
	var e Executor
	var h BestEffort
	job := newGateJob()
	e.SubmitBestEffort(&h, job)
	<-job.started
	closed := make(chan struct{})
	go func() { e.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while a best-effort job was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(job.gate)
	<-closed
	if job.ran.Load() != 1 {
		t.Error("the running best-effort job did not finish before Close returned")
	}
}

// TestBestEffortPanicSurfaces: a best-effort job's panic is re-raised at the
// next Join and at Close.
func TestBestEffortPanicSurfaces(t *testing.T) {
	expectPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, "best-effort job panicked: kaput") {
				t.Errorf("%s: panic %q, want best-effort job / kaput", what, msg)
			}
		}()
		f()
	}
	var e Executor
	var h BestEffort
	e.SubmitBestEffort(&h, panicJob{})
	for e.Claim(&h) {
		e.SubmitBestEffort(&h, panicJob{}) // withdrawn before it ran: offer it again
		runtime.Gosched()
	}
	expectPanic("Join", func() { e.Join(e.Submit(&squareJob{in: 2})) })
	expectPanic("Close", e.Close)
}

// TestBestEffortAllocFree: submitting a best-effort job and claiming it
// allocate nothing.
func TestBestEffortAllocFree(t *testing.T) {
	var e Executor
	defer e.Close()
	var h BestEffort
	j := &countJob{}
	e.SubmitBestEffort(&h, j)
	e.Claim(&h)
	if allocs := testing.AllocsPerRun(1000, func() {
		e.SubmitBestEffort(&h, j)
		e.Claim(&h)
	}); allocs != 0 {
		t.Errorf("SubmitBestEffort+Claim allocates %.2f times, want 0", allocs)
	}
}
