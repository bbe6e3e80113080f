package offload

import (
	"testing"

	"nba/internal/batch"
	"nba/internal/conflang"
	"nba/internal/element"
	"nba/internal/graph"
	"nba/internal/packet"
	"nba/internal/rng"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
)

// twoKernel elements share a "payload" datablock; only the first also reads
// a private header block.
type offElemA struct{ element.Base }

func (*offElemA) Class() string                                   { return "OffA" }
func (*offElemA) Kernel(ctx *element.ProcContext, b *batch.Batch) {}
func (*offElemA) Datablocks() []element.Datablock {
	return []element.Datablock{
		{Name: "payload", Kind: element.WholePacket, Offset: 14, H2D: true},
		{Name: "hdr", Kind: element.PartialPacket, Offset: 14, Length: 20, H2D: true},
	}
}

type offElemB struct{ element.Base }

func (*offElemB) Class() string                                   { return "OffB" }
func (*offElemB) Kernel(ctx *element.ProcContext, b *batch.Batch) {}
func (*offElemB) Datablocks() []element.Datablock {
	return []element.Datablock{
		{Name: "payload", Kind: element.WholePacket, Offset: 14, H2D: true, D2H: true},
	}
}

func init() {
	element.Register("OffA", func() element.Element { return &offElemA{} })
	element.Register("OffB", func() element.Element { return &offElemB{} })
}

func buildChain(t *testing.T) (*graph.Graph, *graph.Node, []*graph.Node, int) {
	t.Helper()
	cfg, err := conflang.Parse(`FromInput() -> OffA() -> OffB() -> ToOutput();`)
	if err != nil {
		t.Fatal(err)
	}
	cctx := &element.ConfigContext{NodeLocal: element.NewNodeLocal(), NumPorts: 4, Rand: rng.New(1)}
	g, err := graph.Build(cfg, cctx, sysinfo.Default(), graph.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	head := g.NodeByName("OffA@2")
	if head == nil {
		for _, n := range g.Nodes {
			if n.Elem.Class() == "OffA" {
				head = n
			}
		}
	}
	chain, resume := g.OffloadChainAt(head)
	if len(chain) != 2 {
		t.Fatalf("chain length %d, want 2", len(chain))
	}
	return g, head, chain, resume
}

func mkDevBatch(n, frameLen int) *batch.Batch {
	b := &batch.Batch{}
	for i := 0; i < n; i++ {
		p := &packet.Packet{}
		ln := packet.BuildUDP4(p.Buf(), [6]byte{2}, [6]byte{4}, uint32(i), uint32(i*7), 1, 2, frameLen)
		p.SetLength(ln)
		b.Add(p)
	}
	b.Anno[batch.AnnoDevice] = 1
	return b
}

func TestAggregatorByteAccounting(t *testing.T) {
	_, head, chain, resume := buildChain(t)
	agg := NewAggregator(sysinfo.Default())
	b := mkDevBatch(10, 64)
	full, err := agg.Add(0, head, chain, resume, b)
	if err != nil {
		t.Fatal(err)
	}
	if full != nil {
		t.Fatal("one batch reported full (limit is 32)")
	}
	if agg.PendingCount() != 1 {
		t.Fatalf("PendingCount = %d", agg.PendingCount())
	}
	ps := agg.TakeAll()
	if len(ps) != 1 {
		t.Fatalf("TakeAll returned %d", len(ps))
	}
	p := ps[0]
	if p.NPkts != 10 {
		t.Errorf("NPkts = %d, want 10", p.NPkts)
	}
	// Deduplicated datablocks: payload (50 B/pkt, H2D+D2H) + hdr (20 B/pkt, H2D).
	wantH2D := 10 * (50 + 20)
	wantD2H := 10 * 50
	if p.H2DBytes != wantH2D {
		t.Errorf("H2DBytes = %d, want %d (payload datablock copied once despite two users)", p.H2DBytes, wantH2D)
	}
	if p.D2HBytes != wantD2H {
		t.Errorf("D2HBytes = %d, want %d", p.D2HBytes, wantD2H)
	}
	// Per-kernel input bytes are not deduplicated: each kernel reads its own
	// H2D datablocks (OffA payload+hdr, OffB payload).
	if p.KernelBytes[0] != 10*(50+20) || p.KernelBytes[1] != 10*50 {
		t.Errorf("KernelBytes = %v, want [700 500]", p.KernelBytes)
	}
	if p.KernelTime(sysinfo.Default()) <= 0 {
		t.Error("kernel time not positive")
	}
}

// TestAddToOpenAggregateDoesNotAllocate gates the per-packet accounting:
// the chain's datablocks are resolved when the aggregate opens, not per
// packet (Datablocks() returns a fresh slice on every call).
func TestAddToOpenAggregateDoesNotAllocate(t *testing.T) {
	_, head, chain, resume := buildChain(t)
	cm := sysinfo.Default()
	agg := NewAggregator(cm)
	b := mkDevBatch(64, 128)
	if _, err := agg.Add(0, head, chain, resume, b); err != nil {
		t.Fatal(err)
	}
	const runs = 10 // plus AllocsPerRun's warm-up call: stays below the flush limit
	if runs+2 >= cm.MaxAggBatches {
		t.Fatalf("MaxAggBatches = %d too small for this test", cm.MaxAggBatches)
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		if full, err := agg.Add(0, head, chain, resume, b); err != nil || full != nil {
			t.Fatalf("Add = %v, %v", full, err)
		}
	}); allocs != 0 {
		t.Errorf("Add to an open aggregate allocates %.1f times per batch, want 0", allocs)
	}
}

// TestExpiredDoesNotAllocate gates the call every worker iteration makes:
// with nothing due it only walks the open heads, and a due aggregate is
// returned in the aggregator's own reused slice.
func TestExpiredDoesNotAllocate(t *testing.T) {
	_, head, chain, resume := buildChain(t)
	cm := sysinfo.Default()
	agg := NewAggregator(cm)
	b := mkDevBatch(64, 128)
	if _, err := agg.Add(0, head, chain, resume, b); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if due := agg.Expired(cm.MaxAggDelay - 1); len(due) != 0 {
			t.Fatalf("%d aggregates due before MaxAggDelay", len(due))
		}
	}); allocs != 0 {
		t.Errorf("Expired with nothing due allocates %.1f times, want 0", allocs)
	}
	// Re-file the one aggregate after every Expired that takes it, so each
	// run returns exactly one; the warm-up call sizes the reused slice.
	taken := agg.Expired(cm.MaxAggDelay)[0]
	refile := func() {
		agg.pending[head.ID] = taken
		agg.heads = append(agg.heads, head.ID)
	}
	refile()
	if allocs := testing.AllocsPerRun(100, func() {
		if due := agg.Expired(cm.MaxAggDelay); len(due) != 1 || due[0] != taken {
			t.Fatalf("Expired returned %d aggregates", len(due))
		}
		refile()
	}); allocs != 0 {
		t.Errorf("Expired returning one aggregate allocates %.1f times, want 0", allocs)
	}
}

// TestExpiredKeepsOpeningOrder pins what the in-place compaction must keep:
// due aggregates come back in the order they were opened, and the survivors
// stay in that order for the next call.
func TestExpiredKeepsOpeningOrder(t *testing.T) {
	g, _, _, _ := buildChain(t)
	cm := sysinfo.Default()
	agg := NewAggregator(cm)
	var heads []*graph.Node
	for _, n := range g.Nodes {
		if n.IsOffloadable() {
			heads = append(heads, n)
		}
	}
	if len(heads) < 2 {
		t.Fatalf("test graph has %d offloadable nodes, want 2", len(heads))
	}
	// Open the second head first and make it the younger one.
	ages := []simtime.Time{5, 0}
	for i, h := range []*graph.Node{heads[1], heads[0]} {
		chain, resume := g.OffloadChainAt(h)
		if _, err := agg.Add(ages[i], h, chain, resume, mkDevBatch(2, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if due := agg.Expired(cm.MaxAggDelay + 1); len(due) != 1 || due[0].Head != heads[0] {
		t.Fatalf("first Expired returned %d aggregates", len(due))
	}
	if agg.PendingCount() != 1 {
		t.Fatalf("PendingCount = %d after one expiry", agg.PendingCount())
	}
	// Reopen the taken head behind the survivor: both due, survivor first.
	chain, resume := g.OffloadChainAt(heads[0])
	if _, err := agg.Add(6, heads[0], chain, resume, mkDevBatch(2, 64)); err != nil {
		t.Fatal(err)
	}
	if due := agg.Expired(2 * cm.MaxAggDelay); len(due) != 2 || due[0].Head != heads[1] || due[1].Head != heads[0] {
		t.Fatalf("second Expired returned %d aggregates, or not in opening order", len(due))
	}
	if agg.PendingCount() != 0 || len(agg.TakeAll()) != 0 {
		t.Error("aggregator not empty after all expired")
	}
}

// TestAggregatorFullFlush feeds the aggregator two aggregates' worth of the
// batch the benchmark's offload.add_ns_per_batch row uses (64 frames of
// 64 B): each flushes at exactly MaxAggBatches with the same tallies, and the
// second shares the first's datablock plan instead of resolving the chain
// again.
func TestAggregatorFullFlush(t *testing.T) {
	_, head, chain, resume := buildChain(t)
	cm := sysinfo.Default()
	agg := NewAggregator(cm)
	b := mkDevBatch(64, 64)
	var flushed []*Pending
	for i := 0; i < 2*cm.MaxAggBatches; i++ {
		p, err := agg.Add(0, head, chain, resume, b)
		if err != nil {
			t.Fatal(err)
		}
		if (p != nil) != (i%cm.MaxAggBatches == cm.MaxAggBatches-1) {
			t.Fatalf("batch %d: flushed = %v, want a flush every %d batches", i, p != nil, cm.MaxAggBatches)
		}
		if p != nil {
			flushed = append(flushed, p)
			if agg.PendingCount() != 0 {
				t.Error("pending not cleared after flush")
			}
		}
	}
	for _, p := range flushed {
		if len(p.Batches) != cm.MaxAggBatches || p.NPkts != 64*cm.MaxAggBatches {
			t.Errorf("flushed %d batches %d pkts", len(p.Batches), p.NPkts)
		}
		// payload 50 B/pkt both ways + hdr 20 B/pkt H2D, as in TestAggregatorByteAccounting.
		if p.H2DBytes != p.NPkts*70 || p.D2HBytes != p.NPkts*50 {
			t.Errorf("flushed H2D %d D2H %d bytes for %d pkts", p.H2DBytes, p.D2HBytes, p.NPkts)
		}
	}
	if flushed[0] == flushed[1] || flushed[0].plan != flushed[1].plan {
		t.Error("successive aggregates of one head do not share one datablock plan")
	}
	if &flushed[0].KernelBytes[0] == &flushed[1].KernelBytes[0] {
		t.Error("successive aggregates share their tallies")
	}
}

func TestAggregatorExpiry(t *testing.T) {
	_, head, chain, resume := buildChain(t)
	cm := sysinfo.Default()
	agg := NewAggregator(cm)
	if _, err := agg.Add(simtime.Microsecond, head, chain, resume, mkDevBatch(2, 64)); err != nil {
		t.Fatal(err)
	}
	if got := agg.Expired(simtime.Microsecond + cm.MaxAggDelay/2); len(got) != 0 {
		t.Errorf("expired too early: %d", len(got))
	}
	got := agg.Expired(simtime.Microsecond + cm.MaxAggDelay)
	if len(got) != 1 {
		t.Fatalf("expired = %d, want 1", len(got))
	}
	if agg.PendingCount() != 0 {
		t.Error("expired aggregate still pending")
	}
}

func TestAggregatorRejectsMixedDevices(t *testing.T) {
	_, head, chain, resume := buildChain(t)
	agg := NewAggregator(sysinfo.Default())
	b1 := mkDevBatch(2, 64)
	if _, err := agg.Add(0, head, chain, resume, b1); err != nil {
		t.Fatal(err)
	}
	b2 := mkDevBatch(2, 64)
	b2.Anno[batch.AnnoDevice] = 2
	if _, err := agg.Add(0, head, chain, resume, b2); err == nil {
		t.Error("mixed-device aggregate accepted")
	}
}

func TestKernelTimeScalesWithPackets(t *testing.T) {
	_, head, chain, resume := buildChain(t)
	cm := sysinfo.Default()
	agg := NewAggregator(cm)
	agg.Add(0, head, chain, resume, mkDevBatch(8, 64))
	small := agg.TakeAll()[0].KernelTime(cm)
	agg2 := NewAggregator(cm)
	agg2.Add(0, head, chain, resume, mkDevBatch(64, 64))
	large := agg2.TakeAll()[0].KernelTime(cm)
	if large <= small {
		t.Errorf("kernel time did not grow with packets: %v vs %v", small, large)
	}
}
