package lb

import (
	"math"
	"testing"

	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/rng"
)

func newCtx(ndev int) (*element.ConfigContext, *element.ProcContext) {
	nl := element.NewNodeLocal()
	r := rng.New(5)
	return &element.ConfigContext{NodeLocal: nl, NumPorts: 4, NumDevices: ndev, Rand: r},
		&element.ProcContext{NodeLocal: nl, Rand: r, CostScale: 1}
}

func configured(t *testing.T, arg string, ndev int) (*LoadBalance, *element.ProcContext, *element.ConfigContext) {
	t.Helper()
	cc, pc := newCtx(ndev)
	e := &LoadBalance{}
	if err := e.Configure(cc, []string{arg}); err != nil {
		t.Fatalf("Configure(%q): %v", arg, err)
	}
	return e, pc, cc
}

func TestRegistered(t *testing.T) {
	e, err := element.NewByClass("LoadBalance")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(element.BatchElement); !ok {
		t.Fatal("LoadBalance is not a BatchElement")
	}
}

func TestCPUOnly(t *testing.T) {
	e, pc, _ := configured(t, "cpu", 1)
	for i := 0; i < 100; i++ {
		b := &batch.Batch{}
		e.ProcessBatch(pc, b)
		if b.Anno[batch.AnnoDevice] != batch.CPUDevice {
			t.Fatal("cpu policy routed to device")
		}
	}
	if e.Decisions[0] != 100 || e.Decisions[1] != 0 {
		t.Errorf("decisions = %v", e.Decisions)
	}
}

func TestGPUOnly(t *testing.T) {
	e, pc, _ := configured(t, "gpu", 1)
	b := &batch.Batch{}
	e.ProcessBatch(pc, b)
	if b.Anno[batch.AnnoDevice] != 1 {
		t.Error("gpu policy did not route to device 1")
	}
}

func TestFixedFraction(t *testing.T) {
	e, pc, _ := configured(t, "fixed=0.8", 1)
	const n = 50000
	for i := 0; i < n; i++ {
		e.ProcessBatch(pc, &batch.Batch{})
	}
	frac := float64(e.Decisions[1]) / n
	if math.Abs(frac-0.8) > 0.02 {
		t.Errorf("offloaded fraction = %v, want ~0.8", frac)
	}
}

func TestAdaptiveFollowsSharedState(t *testing.T) {
	e, pc, cc := configured(t, "adaptive", 1)
	st := SharedState(cc.NodeLocal)
	st.W = 0
	for i := 0; i < 1000; i++ {
		e.ProcessBatch(pc, &batch.Batch{})
	}
	if e.Decisions[1] != 0 {
		t.Error("W=0 but batches offloaded")
	}
	st.W = 1
	for i := 0; i < 1000; i++ {
		e.ProcessBatch(pc, &batch.Batch{})
	}
	if e.Decisions[1] != 1000 {
		t.Errorf("W=1: offloaded %d of 1000", e.Decisions[1])
	}
}

func TestConfigureErrors(t *testing.T) {
	cc, _ := newCtx(1)
	for _, args := range [][]string{nil, {"a", "b"}, {"bogus"}, {"fixed=2"}, {"fixed=x"}, {"fixed=NaN"}} {
		if err := (&LoadBalance{}).Configure(cc, args); err == nil {
			t.Errorf("config %v accepted", args)
		}
	}
	// Accelerator policies on a socket without devices must fail.
	ccNoDev, _ := newCtx(0)
	for _, arg := range []string{"gpu", "adaptive", "fixed=0.5"} {
		if err := (&LoadBalance{}).Configure(ccNoDev, []string{arg}); err == nil {
			t.Errorf("%q accepted without devices", arg)
		}
	}
	if err := (&LoadBalance{}).Configure(ccNoDev, []string{"cpu"}); err != nil {
		t.Errorf("cpu policy rejected without devices: %v", err)
	}
}

func TestControllerClimbsToOptimum(t *testing.T) {
	// Synthetic throughput landscape peaking at w=0.8 (the paper's Figure 2
	// shape): the controller must converge near the peak.
	st := &State{}
	c := NewController(st)
	landscape := func(w float64) float64 {
		return 18 - 12*(w-0.8)*(w-0.8) // Gbps-ish, max at 0.8
	}
	for step := 0; step < 3000; step++ {
		c.Observe(landscape(st.W))
		c.Update()
	}
	if math.Abs(st.W-0.8) > 0.15 {
		t.Errorf("converged W = %v, want ~0.8", st.W)
	}
	if len(c.Trace) == 0 {
		t.Error("no trace recorded")
	}
}

func TestControllerMonotoneLandscapes(t *testing.T) {
	// CPU-better workload: throughput decreases with w; W must fall to ~0.
	st := &State{}
	c := NewController(st)
	for step := 0; step < 2000; step++ {
		c.Observe(40 - 20*st.W)
		c.Update()
	}
	if st.W > 0.15 {
		t.Errorf("CPU-better: W = %v, want ~0", st.W)
	}

	// GPU-better workload: throughput increases with w; W must rise to ~1.
	st2 := &State{}
	c2 := NewController(st2)
	for step := 0; step < 4000; step++ {
		c2.Observe(20 + 20*st2.W)
		c2.Update()
	}
	if st2.W < 0.85 {
		t.Errorf("GPU-better: W = %v, want ~1", st2.W)
	}
}

func TestControllerReconvergesAfterWorkloadChange(t *testing.T) {
	// The paper inserts continuous perturbations so w can find a new
	// convergence point when the workload changes.
	st := &State{}
	c := NewController(st)
	peak := 0.2
	landscape := func(w float64) float64 { return 30 - 25*(w-peak)*(w-peak) }
	for step := 0; step < 2500; step++ {
		c.Observe(landscape(st.W))
		c.Update()
	}
	first := st.W
	if math.Abs(first-0.2) > 0.15 {
		t.Fatalf("phase 1: W = %v, want ~0.2", first)
	}
	peak = 0.9
	for step := 0; step < 6000; step++ {
		c.Observe(landscape(st.W))
		c.Update()
	}
	if math.Abs(st.W-0.9) > 0.15 {
		t.Errorf("after workload change: W = %v, want ~0.9", st.W)
	}
}

func TestControllerWaitRamp(t *testing.T) {
	st := &State{}
	c := NewController(st)
	// At high w the controller waits longer between moves.
	st.W = 1.0
	c.Observe(10)
	c.Update() // performs a move, sets wait
	moves := 0
	prev := st.W
	for i := 0; i < 20; i++ {
		c.Observe(10)
		c.Update()
		if st.W != prev {
			moves++
			prev = st.W
		}
	}
	if moves > 4 {
		t.Errorf("%d moves in 20 updates at w=1, want heavy waiting", moves)
	}
}

func TestUpdateEmptyWindowNoFlip(t *testing.T) {
	// Regression: Update resets the sample window every step, so a step
	// with no intervening Observe used to compare Mean()==0 against last
	// and spuriously flip the climb direction (and clobber last with 0).
	st := &State{}
	c := NewController(st)
	// Prime the controller as if it had been climbing on real samples.
	c.Observe(10)
	c.Update()
	if c.dir != +1 || c.last != 10 {
		t.Fatalf("setup: dir=%v last=%v, want +1/10", c.dir, c.last)
	}
	w0 := st.W
	// Force several control steps with dead observation windows (an outage,
	// or ALBUpdate outpacing ALBObserve).
	for i := 0; i < 5; i++ {
		c.wait = 0
		c.Update()
	}
	if c.dir != +1 {
		t.Error("direction flipped on empty observation windows")
	}
	if c.last != 10 {
		t.Errorf("last = %v, want 10 preserved across empty windows", c.last)
	}
	if st.W <= w0 {
		t.Errorf("W = %v, want continued climb past %v", st.W, w0)
	}
}
