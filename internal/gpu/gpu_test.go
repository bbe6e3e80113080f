package gpu

import (
	"testing"

	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

func newDevice(t *testing.T, workers int) (*Device, *simtime.Engine) {
	t.Helper()
	eng := simtime.NewEngine()
	d, err := New("gpu0", sysinfo.DeviceGPU, eng, sysinfo.Default(), 2.6e9, workers)
	if err != nil {
		t.Fatal(err)
	}
	return d, eng
}

func TestSingleTaskTiming(t *testing.T) {
	d, eng := newDevice(t, 1)
	var execAt, finishAt simtime.Time
	task := &Task{
		NPkts: 2048, H2DBytes: 163840, D2HBytes: 163840,
		KernelTime: 148 * simtime.Microsecond, Kernels: 2,
		Execute:  func() { execAt = eng.Now() },
		Complete: func(f simtime.Time, tk *Task) { finishAt = f },
	}
	eng.After(0, func() { d.Submit(task) })
	eng.Run()

	if task.HostDone <= 0 || task.H2DDone <= task.HostDone || task.KernelDone <= task.H2DDone || task.Finish <= task.KernelDone {
		t.Errorf("stage ordering broken: %+v", task)
	}
	if execAt != task.KernelDone {
		t.Errorf("Execute at %v, want kernel-done %v", execAt, task.KernelDone)
	}
	if finishAt != task.Finish {
		t.Errorf("Complete at %v, want %v", finishAt, task.Finish)
	}
	// Copy time for 163840 B at 2.2 GB/s is ~74.5 us each way.
	h2d := (task.H2DDone - task.HostDone).Micros()
	if h2d < 70 || h2d > 80 {
		t.Errorf("h2d = %v us, want ~74.5", h2d)
	}
	// The paper's minimum IPsec GPU latency is ~287 us (kernel ~140 us +
	// copies 150-200 us); our single-task latency must land in that band.
	total := (task.Finish - task.Submitted).Micros()
	if total < 280 || total > 340 {
		t.Errorf("single task latency = %v us, want ~300 us (paper: min 287 us)", total)
	}
}

func TestPipelineOverlap(t *testing.T) {
	// Two back-to-back tasks: the second's H2D may start while the first
	// kernel runs, so total time < 2x single-task time.
	mk := func() *Task {
		return &Task{NPkts: 2048, H2DBytes: 163840, D2HBytes: 163840,
			KernelTime: 148 * simtime.Microsecond, Kernels: 2}
	}
	d1, e1 := newDevice(t, 1)
	t1 := mk()
	e1.After(0, func() { d1.Submit(t1) })
	e1.Run()
	single := t1.Finish

	d2, e2 := newDevice(t, 1)
	a, b := mk(), mk()
	e2.After(0, func() { d2.Submit(a); d2.Submit(b) })
	e2.Run()
	if b.Finish >= 2*single {
		t.Errorf("no pipelining: 2 tasks took %v, single %v", b.Finish, single)
	}
	if b.KernelDone < a.KernelDone {
		t.Error("kernel engine executed out of order")
	}
}

func TestThroughputKernelBound(t *testing.T) {
	// Submit many IPv4-style tasks (tiny copies, 83us kernels): steady-state
	// spacing must approach the kernel time, not the sum of stages.
	d, eng := newDevice(t, 7)
	var finishes []simtime.Time
	const n = 50
	eng.After(0, func() {
		for i := 0; i < n; i++ {
			d.Submit(&Task{
				NPkts: 2048, H2DBytes: 8192, D2HBytes: 8192,
				KernelTime: 83 * simtime.Microsecond, Kernels: 1,
				Complete: func(f simtime.Time, tk *Task) { finishes = append(finishes, f) },
			})
		}
	})
	eng.Run()
	if len(finishes) != n {
		t.Fatalf("%d completions, want %d", len(finishes), n)
	}
	// Steady-state inter-completion gap.
	gap := (finishes[n-1] - finishes[n/2]).Micros() / float64(n-1-n/2)
	if gap < 80 || gap > 95 {
		t.Errorf("steady-state task gap = %.1f us, want ~83-90 (kernel bound)", gap)
	}
}

func TestThroughputCopyBound(t *testing.T) {
	// IDS-style 1500B tasks: copies dominate (3.1 MB at 2.2 GB/s = 1.4 ms).
	d, eng := newDevice(t, 7)
	var finishes []simtime.Time
	const n = 20
	eng.After(0, func() {
		for i := 0; i < n; i++ {
			d.Submit(&Task{
				NPkts: 2048, H2DBytes: 2048 * 1500, D2HBytes: 2048 * 8,
				KernelTime: 30 * simtime.Microsecond, Kernels: 1,
				Complete: func(f simtime.Time, tk *Task) { finishes = append(finishes, f) },
			})
		}
	})
	eng.Run()
	gap := (finishes[n-1] - finishes[n/2]).Seconds() / float64(n-1-n/2)
	wantGap := float64(2048*1500+2048*8) / 2.2e9
	if gap < wantGap*0.95 || gap > wantGap*1.15 {
		t.Errorf("copy-bound gap = %v s, want ~%v", gap, wantGap)
	}
}

func TestHostCostGrowsWithWorkers(t *testing.T) {
	run := func(workers int) simtime.Time {
		d, eng := newDevice(t, workers)
		task := &Task{NPkts: 64, KernelTime: simtime.Microsecond, Kernels: 1}
		eng.After(0, func() { d.Submit(task) })
		eng.Run()
		return task.HostDone
	}
	if run(7) <= run(1) {
		t.Error("device-thread host cost did not grow with worker count")
	}
}

func TestPhiDeviceDiffers(t *testing.T) {
	eng := simtime.NewEngine()
	cm := sysinfo.Default()
	gpuDev, _ := New("g", sysinfo.DeviceGPU, eng, cm, 2.6e9, 1)
	phiDev, _ := New("p", sysinfo.DevicePhi, eng, cm, 2.6e9, 1)
	mk := func() *Task {
		return &Task{NPkts: 1024, H2DBytes: 65536, D2HBytes: 65536,
			KernelTime: 100 * simtime.Microsecond, Kernels: 1}
	}
	a, b := mk(), mk()
	eng.After(0, func() { gpuDev.Submit(a); phiDev.Submit(b) })
	eng.Run()
	// Phi: slower kernels (2.2x) + extra launch, faster copies.
	if b.KernelDone-b.H2DDone <= a.KernelDone-a.H2DDone {
		t.Error("phi kernel not slower than gpu kernel")
	}
	if b.H2DDone-b.HostDone >= a.H2DDone-a.HostDone {
		t.Error("phi copy not faster than gpu copy")
	}
}

func TestStatsAccounting(t *testing.T) {
	d, eng := newDevice(t, 2)
	eng.After(0, func() {
		d.Submit(&Task{NPkts: 100, H2DBytes: 1000, D2HBytes: 500, KernelTime: simtime.Microsecond, Kernels: 1})
		d.Submit(&Task{NPkts: 50, H2DBytes: 2000, D2HBytes: 0, KernelTime: simtime.Microsecond, Kernels: 1})
	})
	eng.Run()
	s := d.Stats()
	if s.Tasks != 2 || s.Packets != 150 || s.H2DBytes != 3000 || s.D2HBytes != 500 {
		t.Errorf("stats wrong: %+v", s)
	}
	if s.KernelBusy <= 0 || s.CopyBusy <= 0 || s.HostBusy <= 0 {
		t.Error("busy accounting missing")
	}
	k, c := d.Utilization(simtime.Millisecond)
	if k <= 0 || c <= 0 {
		t.Error("utilization zero")
	}
}

func TestBacklogSignal(t *testing.T) {
	d, eng := newDevice(t, 1)
	eng.After(0, func() {
		if d.Backlog() != 0 {
			t.Error("idle backlog non-zero")
		}
		for i := 0; i < 10; i++ {
			d.Submit(&Task{NPkts: 64, KernelTime: 100 * simtime.Microsecond, Kernels: 1})
		}
		if d.Backlog() < 900*simtime.Microsecond {
			t.Errorf("backlog = %v, want ~1ms of queued kernels", d.Backlog())
		}
	})
	eng.Run()
}

func TestNewValidation(t *testing.T) {
	eng := simtime.NewEngine()
	if _, err := New("x", sysinfo.DeviceKind(99), eng, sysinfo.Default(), 2.6e9, 1); err == nil {
		t.Error("unknown device kind accepted")
	}
	if _, err := New("x", sysinfo.DeviceGPU, eng, sysinfo.Default(), 2.6e9, 0); err == nil {
		t.Error("zero workers accepted")
	}
}

func TestHalfDuplexCopyUtilization(t *testing.T) {
	// Saturating back-to-back submits with large copies both ways: the
	// single half-duplex copy engine can never be more than 100% busy. The
	// old model pooled two independent DMA timelines into one CopyBusy
	// counter and reported ~200% here.
	d, eng := newDevice(t, 1)
	const n = 40
	eng.After(0, func() {
		for i := 0; i < n; i++ {
			d.Submit(&Task{
				NPkts: 2048, H2DBytes: 1 << 20, D2HBytes: 1 << 20,
				KernelTime: simtime.Microsecond, Kernels: 1,
			})
		}
	})
	eng.Run()
	_, copyEng := d.Utilization(d.Stats().LastFinish)
	if copyEng > 1.0 {
		t.Errorf("copy engine utilization = %.3f, want <= 1 (half duplex)", copyEng)
	}
	if copyEng < 0.9 {
		t.Errorf("copy engine utilization = %.3f, want ~1 under saturation", copyEng)
	}
}

func TestFailFastCompletion(t *testing.T) {
	d, eng := newDevice(t, 1)
	type done struct {
		at     simtime.Time
		failed bool
	}
	var completions []done
	mk := func() *Task {
		return &Task{
			NPkts: 2048, H2DBytes: 163840, D2HBytes: 163840,
			KernelTime: 148 * simtime.Microsecond, Kernels: 1,
			Execute:  func() { t.Error("Execute ran on a failed task") },
			Complete: func(f simtime.Time, tk *Task) { completions = append(completions, done{f, tk.Failed}) },
		}
	}
	failAt := 10 * simtime.Microsecond
	eng.After(0, func() { d.Submit(mk()) })
	eng.At(failAt, func() {
		d.Fail()
		if d.Healthy() {
			t.Error("failed device reports healthy")
		}
		if d.Backlog() != 0 {
			t.Errorf("failed device backlog = %v, want 0", d.Backlog())
		}
		d.Submit(mk()) // submit-while-failed must fail fast too
	})
	eng.Run()

	if len(completions) != 2 {
		t.Fatalf("%d completions, want 2", len(completions))
	}
	for i, c := range completions {
		if !c.failed {
			t.Errorf("completion %d not marked failed", i)
		}
		if c.at != failAt {
			t.Errorf("completion %d at %v, want fail time %v", i, c.at, failAt)
		}
	}
	if d.Stats().FailedTasks != 2 {
		t.Errorf("FailedTasks = %d, want 2", d.Stats().FailedTasks)
	}
}

func TestHangThenRecover(t *testing.T) {
	d, eng := newDevice(t, 1)
	var execs int
	var finishes []simtime.Time
	mk := func() *Task {
		return &Task{
			NPkts: 64, H2DBytes: 8192, D2HBytes: 8192,
			KernelTime: 50 * simtime.Microsecond, Kernels: 1,
			Execute: func() { execs++ },
			Complete: func(f simtime.Time, tk *Task) {
				if tk.Failed {
					t.Error("hung task completed as failed")
				}
				finishes = append(finishes, f)
			},
		}
	}
	hangAt := 10 * simtime.Microsecond
	recoverAt := 5 * simtime.Millisecond
	eng.After(0, func() { d.Submit(mk()) })
	eng.At(hangAt, func() {
		d.Hang()
		if d.Healthy() {
			t.Error("hung device reports healthy")
		}
		d.Submit(mk()) // parked until recovery
	})
	eng.At(recoverAt-simtime.Microsecond, func() {
		if len(finishes) != 0 || execs != 0 {
			t.Errorf("task completed while hung: %v execs=%d", finishes, execs)
		}
	})
	eng.At(recoverAt, d.Recover)
	eng.Run()

	if len(finishes) != 2 || execs != 2 {
		t.Fatalf("finishes=%v execs=%d, want both tasks after recovery", finishes, execs)
	}
	for i, f := range finishes {
		if f <= recoverAt {
			t.Errorf("task %d finished at %v, before recovery %v", i, f, recoverAt)
		}
	}
}

func TestSlowdownScalesStages(t *testing.T) {
	run := func(kf, cf float64) *Task {
		d, eng := newDevice(t, 1)
		task := &Task{NPkts: 1024, H2DBytes: 1 << 20, D2HBytes: 0,
			KernelTime: 100 * simtime.Microsecond, Kernels: 1}
		eng.After(0, func() {
			d.SetSlowdown(kf, cf)
			d.Submit(task)
		})
		eng.Run()
		return task
	}
	// Float scaling truncates to whole picoseconds, so compare with a
	// few-ps tolerance.
	near := func(a, b simtime.Time) bool {
		d := a - b
		return d > -4 && d < 4
	}
	base, slow := run(0, 0), run(3, 2)
	if got, want := slow.KernelDone-slow.H2DDone, 3*(base.KernelDone-base.H2DDone); !near(got, want) {
		t.Errorf("kernel under 3x slowdown = %v, want %v", got, want)
	}
	if got, want := slow.H2DDone-slow.HostDone, 2*(base.H2DDone-base.HostDone); !near(got, want) {
		t.Errorf("copy under 2x slowdown = %v, want %v", got, want)
	}
	// Recover restores nominal factors.
	d, eng := newDevice(t, 1)
	after := &Task{NPkts: 1024, H2DBytes: 1 << 20, KernelTime: 100 * simtime.Microsecond, Kernels: 1}
	eng.After(0, func() {
		d.SetSlowdown(4, 4)
		d.Recover()
		d.Submit(after)
	})
	eng.Run()
	if got, want := after.KernelDone-after.H2DDone, base.KernelDone-base.H2DDone; got != want {
		t.Errorf("kernel after Recover = %v, want nominal %v", got, want)
	}
}

// TestStalledMeasuresProgressNotAge pins the hang detector's clock: a queue
// far longer than the limit is not stalled while tasks keep finishing, and a
// hung device is stalled exactly limit after its queue started from empty.
func TestStalledMeasuresProgressNotAge(t *testing.T) {
	const limit = 500 * simtime.Microsecond
	d, eng := newDevice(t, 1)
	if d.Stalled(0) {
		t.Error("empty device reports stalled")
	}
	var lastFinish simtime.Time
	mk := func() *Task {
		return &Task{
			NPkts: 64, H2DBytes: 8192, D2HBytes: 8192,
			KernelTime: 100 * simtime.Microsecond, Kernels: 1,
			Complete: func(f simtime.Time, tk *Task) {
				if !tk.Failed {
					lastFinish = f
				}
			},
		}
	}
	// Twenty tasks queue about 2 ms of kernel time, four times the limit.
	eng.After(0, func() {
		for range 20 {
			d.Submit(mk())
		}
	})
	for at := simtime.Microsecond; at < 2*simtime.Millisecond; at += 50 * simtime.Microsecond {
		eng.At(at, func() {
			if d.Stalled(limit) {
				t.Errorf("busy device with %d queued tasks reports stalled at %v", d.Queued(), at)
			}
		})
	}
	hangAt := 3 * simtime.Millisecond
	eng.At(hangAt, func() {
		d.Submit(mk())
		d.Hang()
	})
	eng.At(hangAt+limit-simtime.Microsecond, func() {
		if d.Stalled(limit) {
			t.Error("hung device stalled before the limit elapsed")
		}
	})
	eng.At(hangAt+limit, func() {
		if !d.Stalled(limit) {
			t.Errorf("hung device with %d queued tasks not stalled %v after its queue started", d.Queued(), limit)
		}
		if n := d.AbortAll(); n != 1 || d.Stalled(limit) {
			t.Errorf("AbortAll evacuated %d tasks, stalled after = %v", n, d.Stalled(limit))
		}
	})
	eng.Run()
	if lastFinish < 3*limit {
		t.Errorf("the busy queue finished at %v, want a queue several limits long", lastFinish)
	}
}
