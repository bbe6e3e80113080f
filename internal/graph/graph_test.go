package graph

import (
	"strings"
	"testing"

	"nba/internal/batch"
	"nba/internal/conflang"
	"nba/internal/element"
	"nba/internal/packet"
	"nba/internal/rng"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

// testEnv implements Env over plain slices and pools.
type testEnv struct {
	transmitted []*packet.Packet
	released    []*packet.Packet
	batchPool   *batch.Pool
	offloads    []offloadCall
	cycles      simtime.Cycles
}

type offloadCall struct {
	head   *Node
	chain  []*Node
	resume int
	b      *batch.Batch
}

func newTestEnv() *testEnv {
	return &testEnv{batchPool: batch.NewPool("test", 64)}
}

func (e *testEnv) Transmit(p *packet.Packet)      { e.transmitted = append(e.transmitted, p) }
func (e *testEnv) ReleasePacket(p *packet.Packet) { e.released = append(e.released, p) }
func (e *testEnv) GetBatch() (*batch.Batch, error) {
	return e.batchPool.Get()
}
func (e *testEnv) PutBatch(b *batch.Batch) { e.batchPool.Put(b) }
func (e *testEnv) Offload(head *Node, chain []*Node, resume int, b *batch.Batch) {
	e.offloads = append(e.offloads, offloadCall{head, chain, resume, b})
}
func (e *testEnv) Charge(c simtime.Cycles) { e.cycles += c }

// offloadableNoOp is a trivially offloadable element for structural tests.
type offloadableNoOp struct {
	element.Base
	class string
}

func (e *offloadableNoOp) Class() string { return e.class }
func (e *offloadableNoOp) OutPorts() int {
	if e.class == "TestOffloadTwoPorts" {
		return 2
	}
	return 1
}
func (e *offloadableNoOp) Datablocks() []element.Datablock {
	return []element.Datablock{{Name: "pkt", Kind: element.WholePacket, H2D: true, D2H: true}}
}
func (e *offloadableNoOp) Kernel(ctx *element.ProcContext, b *batch.Batch) {
	if e.class == "TestOffloadDropOdd" {
		b.ForEachLive(func(i int, _ *packet.Packet) {
			if i%2 == 1 {
				b.SetResult(i, batch.ResultDrop)
			}
		})
	}
}

// formless has no compute form; twoForms has two.
type formless struct{ element.Base }

func (*formless) Class() string { return "TestFormless" }

type twoForms struct{ element.NoOp }

func (*twoForms) Class() string                                             { return "TestTwoForms" }
func (*twoForms) ProcessBatch(ctx *element.ProcContext, b *batch.Batch) int { return 0 }

// batchOnly has only the per-batch form and forwards every batch whole.
type batchOnly struct{ element.Base }

func (*batchOnly) Class() string                                             { return "TestBatchOnly" }
func (*batchOnly) ProcessBatch(ctx *element.ProcContext, b *batch.Batch) int { return 0 }

func init() {
	for _, class := range []string{"TestOffloadA", "TestOffloadB", "TestOffloadTwoPorts", "TestOffloadDropOdd"} {
		element.Register(class, func() element.Element { return &offloadableNoOp{class: class} })
	}
	element.Register("TestFormless", func() element.Element { return &formless{} })
	element.Register("TestTwoForms", func() element.Element { return &twoForms{} })
	element.Register("TestBatchOnly", func() element.Element { return &batchOnly{} })
}

func buildGraph(t *testing.T, src string, opts Options) *Graph {
	t.Helper()
	cfg, err := conflang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cctx := &element.ConfigContext{
		Socket: 0, Worker: 0, NodeLocal: element.NewNodeLocal(),
		NumPorts: 4, Rand: rng.New(7),
	}
	g, err := Build(cfg, cctx, sysinfo.Default(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pctx() *element.ProcContext {
	return &element.ProcContext{NodeLocal: element.NewNodeLocal(), Rand: rng.New(3), CostScale: 1}
}

func mkBatch(t *testing.T, env *testEnv, n, frameLen int) *batch.Batch {
	t.Helper()
	b := env.batchPool.MustGet()
	for i := 0; i < n; i++ {
		p := &packet.Packet{}
		ln := packet.BuildUDP4(p.Buf(), [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2},
			uint32(0x0A000000+i), 0xC0A80101, uint16(1000+i), 53, frameLen)
		p.SetLength(ln)
		b.Add(p)
	}
	return b
}

func TestLinearPipelineTransmitsAll(t *testing.T) {
	g := buildGraph(t, `FromInput() -> CheckIPHeader() -> DecIPTTL() -> L2Forward() -> ToOutput();`, DefaultOptions())
	env := newTestEnv()
	b := mkBatch(t, env, 32, 64)
	g.Inject(env, pctx(), b)
	if len(env.transmitted) != 32 {
		t.Fatalf("transmitted %d, want 32", len(env.transmitted))
	}
	if len(env.released) != 0 {
		t.Errorf("released %d, want 0", len(env.released))
	}
	if env.batchPool.Stats().Outstanding != 0 {
		t.Errorf("batches leaked: %d outstanding", env.batchPool.Stats().Outstanding)
	}
	if env.cycles == 0 {
		t.Error("no cycles charged")
	}
}

func TestInvalidPacketsDropped(t *testing.T) {
	g := buildGraph(t, `FromInput() -> CheckIPHeader() -> ToOutput();`, DefaultOptions())
	env := newTestEnv()
	b := mkBatch(t, env, 10, 64)
	// Corrupt three packets' checksums.
	for i := 0; i < 3; i++ {
		b.Packet(i).Data()[packet.EthHdrLen+16] ^= 0xff
	}
	g.Inject(env, pctx(), b)
	if len(env.transmitted) != 7 {
		t.Errorf("transmitted %d, want 7", len(env.transmitted))
	}
	if len(env.released) != 3 {
		t.Errorf("released %d, want 3", len(env.released))
	}
	chk := g.NodeByName("CheckIPHeader@2")
	if chk == nil || chk.Dropped != 3 {
		t.Errorf("CheckIPHeader drop counter wrong: %+v", chk)
	}
}

func TestBranchSplitsAndPrediction(t *testing.T) {
	src := `
		b :: RandomWeightedBranch("0.3");
		FromInput() -> b;
		b[0] -> L2Forward() -> ToOutput();
		b[1] -> Discard();
	`
	// With prediction: the majority path reuses the input batch.
	g := buildGraph(t, src, DefaultOptions())
	env := newTestEnv()
	for iter := 0; iter < 10; iter++ {
		g.Inject(env, pctx(), mkBatch(t, env, 64, 64))
	}
	node := g.NodeByName("b")
	if node.Reuses == 0 {
		t.Error("branch prediction never reused a batch")
	}
	total := len(env.transmitted) + len(env.released)
	if total != 640 {
		t.Errorf("packet conservation violated: %d of 640 accounted", total)
	}
	if env.batchPool.Stats().Outstanding != 0 {
		t.Errorf("batches leaked: %d", env.batchPool.Stats().Outstanding)
	}

	// Without prediction: everything splits, no reuses.
	g2 := buildGraph(t, src, Options{BranchPrediction: false, OffloadChaining: true})
	env2 := newTestEnv()
	for iter := 0; iter < 10; iter++ {
		g2.Inject(env2, pctx(), mkBatch(t, env2, 64, 64))
	}
	n2 := g2.NodeByName("b")
	if n2.Reuses != 0 {
		t.Errorf("prediction disabled but %d reuses", n2.Reuses)
	}
	if n2.Splits <= node.Splits {
		t.Errorf("splits without prediction (%d) should exceed with (%d)", n2.Splits, node.Splits)
	}
}

func TestBranchPredictionCheaperThanSplitting(t *testing.T) {
	// The whole point of Figure 10: masking majority packets costs less
	// than allocating split batches for them.
	src := `
		b :: RandomWeightedBranch("0.01");
		FromInput() -> b;
		b[0] -> ToOutput();
		b[1] -> Discard();
	`
	run := func(opts Options) simtime.Cycles {
		g := buildGraph(t, src, opts)
		env := newTestEnv()
		ctx := pctx() // shared so the PRNG sequence advances across batches
		for iter := 0; iter < 50; iter++ {
			g.Inject(env, ctx, mkBatch(t, env, 64, 64))
		}
		return env.cycles
	}
	with := run(DefaultOptions())
	without := run(Options{BranchPrediction: false, OffloadChaining: true})
	if with >= without {
		t.Errorf("prediction (%d cycles) not cheaper than splitting (%d cycles)", with, without)
	}
}

func TestPerBatchElement(t *testing.T) {
	g := buildGraph(t, `FromInput() -> TestBatchOnly() -> L2Forward() -> ToOutput();`, DefaultOptions())
	env := newTestEnv()
	g.Inject(env, pctx(), mkBatch(t, env, 16, 64))
	if len(env.transmitted) != 16 {
		t.Errorf("transmitted %d, want 16", len(env.transmitted))
	}
}

func TestOffloadInterception(t *testing.T) {
	g := buildGraph(t, `FromInput() -> TestOffloadA() -> TestOffloadB() -> ToOutput();`, DefaultOptions())
	env := newTestEnv()

	// CPU-annotated batch flows straight through.
	b := mkBatch(t, env, 8, 64)
	g.Inject(env, pctx(), b)
	if len(env.offloads) != 0 || len(env.transmitted) != 8 {
		t.Fatalf("CPU batch: offloads=%d transmitted=%d", len(env.offloads), len(env.transmitted))
	}

	// Device-annotated batch is intercepted, with both offloadables chained.
	b2 := mkBatch(t, env, 8, 64)
	b2.Anno[batch.AnnoDevice] = 1
	g.Inject(env, pctx(), b2)
	if len(env.offloads) != 1 {
		t.Fatalf("offloads = %d, want 1", len(env.offloads))
	}
	call := env.offloads[0]
	if len(call.chain) != 2 {
		t.Errorf("chain length = %d, want 2 (chaining enabled)", len(call.chain))
	}
	resumeNode := g.Nodes[call.resume]
	if !resumeNode.isSink {
		t.Errorf("resume node = %s, want the sink", resumeNode.Name)
	}
}

// TestOffloadableOnCPU: a CPU-routed batch runs the offloadable's kernel in
// the pipeline. The packets it marks are dropped at the node and the rest go
// on, whatever results the previous element left in the batch (here port 1 of
// a branch), and the node's per-packet CPU cost is charged.
func TestOffloadableOnCPU(t *testing.T) {
	src := `
		c :: Classifier("ip6", "ip");
		k :: TestOffloadDropOdd();
		FromInput() -> c;
		c[0] -> Discard();
		c[1] -> k -> ToOutput();
	`
	g := buildGraph(t, src, DefaultOptions())
	env := newTestEnv()
	g.Inject(env, pctx(), mkBatch(t, env, 8, 64))
	k := g.NodeByName("k")
	if len(env.transmitted) != 4 || len(env.released) != 4 || k.Processed != 8 || k.Dropped != 4 {
		t.Fatalf("transmitted %d released %d, k processed %d dropped %d; want 4, 4, 8, 4",
			len(env.transmitted), len(env.released), k.Processed, k.Dropped)
	}
	if len(env.offloads) != 0 {
		t.Errorf("CPU-routed batch offloaded %d times", len(env.offloads))
	}
	var b batch.Batch
	for _, p := range env.transmitted {
		b.Add(p)
	}
	if got, want := k.RunOnCPU(pctx(), &b), 4*sysinfo.Default().ElementCostOf("TestOffloadDropOdd").Cycles(64); got != want {
		t.Errorf("RunOnCPU cost %d cycles, want %d", got, want)
	}
}

func TestOffloadChainingDisabled(t *testing.T) {
	g := buildGraph(t, `FromInput() -> TestOffloadA() -> TestOffloadB() -> ToOutput();`,
		Options{BranchPrediction: true, OffloadChaining: false})
	env := newTestEnv()
	b := mkBatch(t, env, 4, 64)
	b.Anno[batch.AnnoDevice] = 1
	g.Inject(env, pctx(), b)
	if len(env.offloads) != 1 {
		t.Fatalf("offloads = %d, want 1", len(env.offloads))
	}
	if len(env.offloads[0].chain) != 1 {
		t.Errorf("chain length = %d, want 1 (chaining disabled)", len(env.offloads[0].chain))
	}
	// The resume node must be the second offloadable.
	if g.Nodes[env.offloads[0].resume].Elem.Class() != "TestOffloadB" {
		t.Errorf("resume = %s, want TestOffloadB", g.Nodes[env.offloads[0].resume].Name)
	}
}

func TestRunFromUnconnectedDrops(t *testing.T) {
	g := buildGraph(t, `FromInput() -> NoOp() -> ToOutput();`, DefaultOptions())
	env := newTestEnv()
	b := mkBatch(t, env, 5, 64)
	g.RunFrom(env, pctx(), -1, b)
	if len(env.released) != 5 || g.DropUnrouted != 5 {
		t.Errorf("released=%d DropUnrouted=%d, want 5,5", len(env.released), g.DropUnrouted)
	}
}

func TestBatchPoolExhaustionDropsSplitPath(t *testing.T) {
	src := `
		b :: RandomWeightedBranch("0.5");
		FromInput() -> b;
		b[0] -> ToOutput();
		b[1] -> Discard();
	`
	g := buildGraph(t, src, DefaultOptions())
	env := newTestEnv()
	// Drain the pool except one batch (the one we inject).
	var hold []*batch.Batch
	for env.batchPool.Available() > 1 {
		hold = append(hold, env.batchPool.MustGet())
	}
	b := mkBatch(t, env, 32, 64)
	g.Inject(env, pctx(), b) // split allocation must fail gracefully
	total := len(env.transmitted) + len(env.released)
	if total != 32 {
		t.Errorf("conservation violated under exhaustion: %d of 32", total)
	}
	for _, h := range hold {
		env.batchPool.Put(h)
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{`FromInput() -> Bogus() -> ToOutput();`, "unknown class"},
		{`FromInput() -> NoOp("arg") -> ToOutput();`, "no parameters"},
		{`NoOp() -> ToOutput();`, "no source"},
		{`FromInput() -> NoOp();`, "no sink"},
		{`a :: FromInput(); a -> ToOutput(); FromInput() -> ToOutput();`, "multiple source"},
		{`a :: FromInput();`, "not connected"},
		{`a :: NoOp(); FromInput() -> a; a[1] -> ToOutput();`, "no output port"},
		{`a :: NoOp(); FromInput() -> a; a -> ToOutput(); a -> Discard();`, "connected twice"},
		{`a :: FromInput(); NoOp() -> a;`, "into source"},
		{`FromInput() -> TestFormless() -> ToOutput();`, "line 1: TestFormless@2 (TestFormless) implements 0 compute forms"},
		{`FromInput() -> TestTwoForms() -> ToOutput();`, "line 1: TestTwoForms@2 (TestTwoForms) implements 2 compute forms"},
		// The device path resumes at the chain's one successor; before this was
		// rejected it resumed at "unconnected" and counted every packet as an
		// unrouted drop, where the CPU path forwarded them.
		{"a :: TestOffloadTwoPorts();\nFromInput() -> a;\na[0] -> ToOutput();\na[1] -> Discard();",
			"line 1: offloadable a (TestOffloadTwoPorts) has 2 output ports, want 1"},
	}
	cctx := &element.ConfigContext{NodeLocal: element.NewNodeLocal(), NumPorts: 4, Rand: rng.New(1)}
	for _, c := range cases {
		cfg, err := conflang.Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		_, err = Build(cfg, cctx, sysinfo.Default(), DefaultOptions())
		if err == nil {
			t.Errorf("Build(%q) succeeded, want error %q", c.src, c.wantSub)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Build(%q) error = %q, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestCycleRejected(t *testing.T) {
	src := `
		a :: NoOp();
		b :: NoOp();
		FromInput() -> a;
		a -> b;
	`
	cfg, err := conflang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	// Manually add the back edge b -> a plus a sink so only the cycle fails.
	cfg2, err := conflang.Parse(src + "b -> a;")
	if err != nil {
		t.Fatal(err)
	}
	_ = cfg
	cctx := &element.ConfigContext{NodeLocal: element.NewNodeLocal(), NumPorts: 4, Rand: rng.New(1)}
	_, err = Build(cfg2, cctx, sysinfo.Default(), DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cyclic graph error = %v, want cycle", err)
	}
}

func TestEmptyBatchInjection(t *testing.T) {
	g := buildGraph(t, `FromInput() -> NoOp() -> ToOutput();`, DefaultOptions())
	env := newTestEnv()
	b := env.batchPool.MustGet()
	g.Inject(env, pctx(), b)
	if env.batchPool.Stats().Outstanding != 0 {
		t.Error("empty batch not returned to pool")
	}
}

func TestCostScaleInflatesCharges(t *testing.T) {
	g1 := buildGraph(t, `FromInput() -> CheckIPHeader() -> ToOutput();`, DefaultOptions())
	env1 := newTestEnv()
	g1.Inject(env1, pctx(), mkBatch(t, env1, 32, 64))

	g2 := buildGraph(t, `FromInput() -> CheckIPHeader() -> ToOutput();`, DefaultOptions())
	env2 := newTestEnv()
	ctx2 := pctx()
	ctx2.CostScale = 2.0
	g2.Inject(env2, ctx2, mkBatch(t, env2, 32, 64))

	if env2.cycles <= env1.cycles {
		t.Errorf("CostScale=2 charged %d cycles, baseline %d", env2.cycles, env1.cycles)
	}
}
