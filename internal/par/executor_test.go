package par

import (
	"fmt"
	"runtime"
	"strings"
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
