package invariant

import (
	"strings"
	"testing"

	"nba/internal/simtime"
	"nba/internal/stats"
)

const ms = simtime.Millisecond

func wantClean(t *testing.T, c *Checker) {
	t.Helper()
	if err := c.Err(); err != nil {
		t.Fatalf("unexpected violations: %v", err)
	}
}

func wantCheck(t *testing.T, c *Checker, check, msgSub string) {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Check == check && strings.Contains(v.Msg, msgSub) {
			return
		}
	}
	t.Fatalf("no %q violation containing %q; have %v", check, msgSub, c.Violations())
}

func TestNilCheckerIsSafe(t *testing.T) {
	var c *Checker
	c.OnDispatch(ms)
	c.GPUTask(ms, "g", 1, 0, 1, 2, 3, 4)
	c.LBStep(ms, 0.5, 1)
	c.LBCollapse(ms, 0.25)
	c.LBUpdated(ms, 0.5)
	c.RxQueue(ms, 0, 0, 10, 5, 1, 64)
	c.DeviceUtil(ms, "g", ms, ms, 2*ms)
	c.PoolDrained(ms, nil)
	c.Conservation(ms, CheckConservation, "", stats.Counters{RxDelivered: 1})
	c.CorruptLeak(ms, 0, 1)
	c.DeviceQueue(ms, "g", 5, 4)
	c.StuckDrain(ms, 1)
	c.EndOfRun(ms)
	c.Violatef(ms, CheckConservation, "x")
	if c.Err() != nil || c.Violations() != nil || c.Suppressed() != 0 {
		t.Fatal("nil checker reported state")
	}
}

func TestDispatchMonotonicity(t *testing.T) {
	c := New()
	c.OnDispatch(ms)
	c.OnDispatch(ms) // equal timestamps are fine
	c.OnDispatch(2 * ms)
	wantClean(t, c)
	c.OnDispatch(ms)
	wantCheck(t, c, CheckTimeMonotonic, "after one at")
}

func TestGPUPhaseOrdering(t *testing.T) {
	c := New()
	c.GPUTask(0, "gpu0", 1, 0, ms, 2*ms, 3*ms, 4*ms)
	// A task parked by a hang is rescheduled with its original (past)
	// submission time; that must not trip the check.
	c.GPUTask(10*ms, "gpu0", 2, 2*ms, 11*ms, 12*ms, 13*ms, 14*ms)
	wantClean(t, c)
	c.GPUTask(0, "gpu0", 3, 0, 2*ms, ms, 3*ms, 4*ms) // H2D before host done
	wantCheck(t, c, CheckGPUPhase, "task 3 phases out of order")
}

func TestLBBounds(t *testing.T) {
	c := New()
	c.LBStep(ms, 0.0, 0)
	c.LBUpdated(ms, 1.0)
	wantClean(t, c)
	c.LBUpdated(2*ms, 1.04)
	wantCheck(t, c, CheckLBBounds, "W = 1.04")
	c.LBStep(3*ms, -0.01, 0)
	wantCheck(t, c, CheckLBBounds, "W = -0.01")
}

func TestLBCollapseExpectation(t *testing.T) {
	// Failures observed at a step, collapse fires: clean.
	c := New()
	c.LBStep(ms, 0.5, 3)
	c.LBCollapse(ms, 0.25)
	c.LBStep(2*ms, 0.25, 0)
	c.EndOfRun(3 * ms)
	wantClean(t, c)

	// Failures observed, no collapse before the next step: violation.
	c = New()
	c.LBStep(ms, 0.5, 3)
	c.LBStep(2*ms, 0.54, 0)
	wantCheck(t, c, CheckLBCollapse, "never collapsed")

	// Failures observed at the last step of the run: EndOfRun flags it.
	c = New()
	c.LBStep(ms, 0.5, 1)
	c.EndOfRun(2 * ms)
	wantCheck(t, c, CheckLBCollapse, "run ended")
}

func TestRxQueueAccounting(t *testing.T) {
	c := New()
	c.RxQueue(ms, 0, 1, 100, 60, 40, 64)
	c.RxQueue(ms, 0, 1, 100, 30, 6, 64)
	wantClean(t, c)
	c.RxQueue(2*ms, 0, 1, 100, 80, 30, 64)
	wantCheck(t, c, CheckRxAccounting, "exceeds arrivals")
	c.RxQueue(3*ms, 1, 0, 200, 10, 0, 64)
	wantCheck(t, c, CheckRxAccounting, "backlog 190 exceeds capacity 64")
}

func TestDeviceUtil(t *testing.T) {
	c := New()
	c.DeviceUtil(ms, "gpu0", ms, ms, ms) // exactly 100% is legal
	c.DeviceUtil(ms, "idle", 0, 0, 0)    // never active: skipped
	wantClean(t, c)
	c.DeviceUtil(2*ms, "gpu0", 3*ms, ms, 2*ms)
	wantCheck(t, c, CheckGPUUtil, "kernel engine busy")
	c.DeviceUtil(2*ms, "gpu0", ms, 3*ms, 2*ms)
	wantCheck(t, c, CheckGPUUtil, "copy engine busy")
}

// counters builds an accounting table from the five sides of the identity.
func counters(delivered, tx, dropped, shed, quarantined uint64) stats.Counters {
	return stats.Counters{RxDelivered: delivered, TxPackets: tx, GraphDrops: dropped,
		ShedPackets: shed, QuarantinedPackets: quarantined}
}

func TestConservation(t *testing.T) {
	c := New()
	c.Conservation(ms, CheckConservation, "", counters(100, 90, 10, 0, 0))
	c.Conservation(ms, CheckConservation, "", counters(100, 80, 10, 10, 0)) // shed packets balance the identity
	c.Conservation(ms, CheckConservation, "", counters(100, 80, 10, 5, 5))  // quarantined packets balance it too
	wantClean(t, c)
	c.Conservation(2*ms, CheckConservation, "", counters(100, 95, 10, 0, 0)) // double account
	wantCheck(t, c, CheckConservation, "diff +5")
	c.Conservation(3*ms, CheckConservation, "", counters(100, 90, 5, 0, 0)) // leak
	wantCheck(t, c, CheckConservation, "diff -5")
	c.Conservation(4*ms, CheckConservation, "", counters(100, 90, 5, 15, 0)) // shed over-account
	wantCheck(t, c, CheckConservation, "shed 15")
	c.Conservation(5*ms, CheckConservation, "", counters(100, 90, 5, 0, 10)) // quarantine over-account
	wantCheck(t, c, CheckConservation, "diff +5")
}

// TestConservationMessages pins the full wording of all three identities:
// chaos reproducers and shrink logs quote these messages, so folding the
// three checks into one must not have changed them.
func TestConservationMessages(t *testing.T) {
	leak := counters(100, 80, 5, 3, 2)
	cases := []struct{ check, scope, want string }{
		{CheckConservation, "",
			"delivered 100 != transmitted 80 + dropped 5 + shed 3 + quarantined 2 (diff -10)"},
		{CheckTenantConservation, "tenant ipsec: ",
			"tenant ipsec: delivered 100 != transmitted 80 + dropped 5 + shed 3 + quarantined 2 (diff -10)"},
		{CheckEpochConservation, "epoch 3 tenant churn: ",
			"epoch 3 tenant churn: delivered 100 != transmitted 80 + dropped 5 + shed 3 + quarantined 2 at evict seal (residue +10)"},
	}
	for _, tc := range cases {
		c := New()
		c.Conservation(ms, tc.check, tc.scope, leak)
		vs := c.Violations()
		if len(vs) != 1 || vs[0].Check != tc.check || vs[0].Msg != tc.want {
			t.Errorf("%s: got %v, want one violation %q", tc.check, vs, tc.want)
		}
	}
}

func TestCorruptLeak(t *testing.T) {
	c := New()
	c.CorruptLeak(ms, 3, 42)
	wantCheck(t, c, CheckCorruptLeak, "worker 3 transmitted corrupted packet seq 42")
}

func TestDeviceQueueBound(t *testing.T) {
	c := New()
	c.DeviceQueue(ms, "gpu0", 64, 64) // exactly at depth is legal
	c.DeviceQueue(ms, "gpu0", 12, 64)
	c.DeviceQueue(ms, "gpu0", 999, 0)  // unbounded queue: skipped
	c.DeviceQueue(ms, "gpu0", 999, -1) // ditto
	wantClean(t, c)
	c.DeviceQueue(2*ms, "gpu0", 65, 64)
	wantCheck(t, c, CheckQueueBound, "task queue at 65, over configured depth 64")
}

func TestPerCheckCapAndErr(t *testing.T) {
	c := New()
	for i := 0; i < maxPerCheck+10; i++ {
		c.Violatef(ms, CheckConservation, "breach %d", i)
	}
	if got := len(c.Violations()); got != maxPerCheck {
		t.Fatalf("stored %d violations, want cap %d", got, maxPerCheck)
	}
	if c.Suppressed() != 10 {
		t.Fatalf("suppressed = %d, want 10", c.Suppressed())
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "+10 suppressed") {
		t.Fatalf("Err() = %v, want suppressed count", err)
	}
}
