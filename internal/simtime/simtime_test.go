package simtime

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second.Seconds() != 1.0 {
		t.Errorf("Second.Seconds() = %v, want 1", Second.Seconds())
	}
	if Microsecond.Micros() != 1.0 {
		t.Errorf("Microsecond.Micros() = %v, want 1", Microsecond.Micros())
	}
	if (2 * Millisecond).Nanos() != 2e6 {
		t.Errorf("2ms in ns = %v, want 2e6", (2 * Millisecond).Nanos())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{3 * Nanosecond, "3ns"},
		{43 * Microsecond, "43us"},
		{200 * Millisecond, "200ms"},
		{2 * Second, "2s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestCyclesToTime(t *testing.T) {
	// 2.6 GHz: one cycle is ~384.6 ps; 26 cycles are exactly 10 ns.
	if got := CyclesToTime(26, 2.6e9); got != 10*Nanosecond {
		t.Errorf("26 cycles @2.6GHz = %v, want 10ns", got)
	}
	// 1 GHz: one cycle is exactly 1 ns.
	if got := CyclesToTime(1000, 1e9); got != Microsecond {
		t.Errorf("1000 cycles @1GHz = %v, want 1us", got)
	}
	if got := CyclesToTime(0, 1e9); got != 0 {
		t.Errorf("0 cycles = %v, want 0", got)
	}
	if got := CyclesToTime(-5, 1e9); got != 0 {
		t.Errorf("negative cycles = %v, want 0", got)
	}
}

func TestCyclesToTimeRoundsUp(t *testing.T) {
	// One cycle at 2.6GHz is 384.61...ps and must round up to 385.
	if got := CyclesToTime(1, 2.6e9); got != 385*Picosecond {
		t.Errorf("1 cycle @2.6GHz = %v, want 385ps", got)
	}
}

func TestCyclesTimeRoundTripProperty(t *testing.T) {
	// For any positive cycle count, converting to time and back never loses
	// more than one cycle (round-up on the way out, round-down back).
	f := func(c uint32) bool {
		cy := Cycles(c%1_000_000 + 1)
		back := TimeToCycles(CyclesToTime(cy, 2.6e9), 2.6e9)
		return back >= cy-1 && back <= cy+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-broken order = %v, want ascending schedule order", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits int
	var loop func()
	loop = func() {
		hits++
		if hits < 5 {
			e.After(10, loop)
		}
	}
	e.After(0, loop)
	e.Run()
	if hits != 5 {
		t.Errorf("hits = %d, want 5", hits)
	}
	if e.Now() != 40 {
		t.Errorf("Now = %v, want 40", e.Now())
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(50, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(10, func() {})
}

func TestTimerCancel(t *testing.T) {
	e := NewEngine()
	var fired bool
	tm := e.At(10, func() { fired = true })
	if !tm.Cancel() {
		t.Error("first Cancel returned false")
	}
	if tm.Cancel() {
		t.Error("second Cancel returned true")
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if e.Len() != 0 {
		t.Errorf("Len = %d, want 0", e.Len())
	}
}

func TestTimerZeroValueCancelIsNoOp(t *testing.T) {
	var tm Timer
	if tm.Cancel() {
		t.Error("Cancel on zero Timer returned true")
	}
}

func TestStaleTimerDoesNotCancelRecycledEvent(t *testing.T) {
	e := NewEngine()
	var firstFired bool
	stale := e.At(10, func() { firstFired = true })
	e.Run()
	if !firstFired {
		t.Fatal("first event did not fire")
	}
	// The fired event's storage is now on the free list; the next schedule
	// reuses it with a bumped generation.
	var secondFired bool
	e.At(20, func() { secondFired = true })
	if stale.Cancel() {
		t.Error("stale Timer cancelled a recycled event")
	}
	e.Run()
	if !secondFired {
		t.Error("recycled event did not fire")
	}
}

func TestScheduleSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Warm the free list: after this, every schedule/fire cycle reuses a
	// recycled event.
	for i := 0; i < 64; i++ {
		e.After(Time(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.After(Time(i), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule/run allocates %v per run, want 0", allocs)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	var count int
	var loop func()
	loop = func() {
		count++
		if count == 3 {
			e.Stop()
		}
		e.After(10, loop)
	}
	e.After(0, loop)
	e.Run()
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestEngineNegativeAfterClampsToNow(t *testing.T) {
	e := NewEngine()
	var fired bool
	e.At(100, func() {
		e.After(-50, func() { fired = true })
	})
	e.Run()
	if !fired {
		t.Error("event scheduled with negative delay did not fire")
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.After(Time(i%1000), func() {})
		if e.Len() > 10000 {
			e.Run()
		}
	}
	e.Run()
}
