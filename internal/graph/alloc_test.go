package graph

import (
	"testing"

	"nba/internal/batch"
	"nba/internal/packet"
	"nba/internal/simtime"
	"nba/internal/trace"
)

// allocEnv is a steady-state Env that recycles everything: no slice appends,
// no per-run allocations of its own, so AllocsPerRun isolates the pipeline.
type allocEnv struct {
	batchPool   *batch.Pool
	transmitted int
	cycles      simtime.Cycles
}

func (e *allocEnv) Transmit(p *packet.Packet)                         { e.transmitted++ }
func (e *allocEnv) ReleasePacket(p *packet.Packet)                    {}
func (e *allocEnv) GetBatch() (*batch.Batch, error)                   { return e.batchPool.Get() }
func (e *allocEnv) PutBatch(b *batch.Batch)                           { b.Reset(); e.batchPool.Put(b) }
func (e *allocEnv) Offload(h *Node, c []*Node, r int, b *batch.Batch) {}
func (e *allocEnv) Charge(c simtime.Cycles)                           { e.cycles += c }

// injectAllocs measures steady-state allocations of one full pipeline pass
// over a 64-packet batch.
func injectAllocs(t *testing.T, g *Graph) float64 {
	t.Helper()
	env := &allocEnv{batchPool: batch.NewPool("alloc", 8)}
	ctx := pctx()
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		p := &packet.Packet{}
		ln := packet.BuildUDP4(p.Buf(), [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2},
			uint32(0x0A000000+i), 0xC0A80101, uint16(1000+i), 53, 64)
		p.SetLength(ln)
		pkts[i] = p
	}
	run := func() {
		b := env.batchPool.MustGet()
		for _, p := range pkts {
			b.Add(p)
		}
		g.Inject(env, ctx, b)
	}
	run() // warm up pools and any lazy element state
	return testing.AllocsPerRun(200, run)
}

// TestTracerAddsNoAllocsOnHotPath is the worker-hot-path allocation gate for
// the observability layer: with the tracer disabled (nil) the pipeline must
// allocate exactly as much as a never-traced graph, and — because Emit is
// ring-buffered and digest scratch is reused — enabling the tracer must not
// add any allocations either.
func TestTracerAddsNoAllocsOnHotPath(t *testing.T) {
	const src = `FromInput() -> CheckIPHeader() -> DecIPTTL() -> L2Forward() -> ToOutput();`

	baseline := injectAllocs(t, buildGraph(t, src, DefaultOptions()))

	disabled := buildGraph(t, src, DefaultOptions())
	disabled.Tracer = nil // explicit: the disabled tracer is a nil *Tracer
	disabled.TraceNow = func() simtime.Time { return 0 }
	if got := injectAllocs(t, disabled); got != baseline {
		t.Errorf("disabled tracer changed hot-path allocations: %v, baseline %v", got, baseline)
	}

	enabled := buildGraph(t, src, DefaultOptions())
	enabled.Tracer = trace.New(trace.Options{Capacity: 1 << 16, CheckpointInterval: -1})
	enabled.TraceNow = func() simtime.Time { return 0 }
	if got := injectAllocs(t, enabled); got != baseline {
		t.Errorf("enabled tracer adds hot-path allocations: %v, baseline %v", got, baseline)
	}
	if enabled.Tracer.Total() == 0 {
		t.Fatal("enabled tracer recorded nothing; the measurement is vacuous")
	}
}

// TestOffloadInterceptionDoesNotAllocate gates the offload hand-off: the
// chain of an offloadable head is computed once at Build, so intercepting a
// device-annotated batch builds nothing (allocEnv.Offload drops the batch on
// the floor, so a fresh one is made outside the measured function).
func TestOffloadInterceptionDoesNotAllocate(t *testing.T) {
	g := buildGraph(t, `FromInput() -> TestOffloadA() -> TestOffloadB() -> ToOutput();`, DefaultOptions())
	head := g.Nodes[g.Source.out[0]]
	if allocs := testing.AllocsPerRun(100, func() {
		if chain, resume := g.OffloadChainAt(head); len(chain) != 2 || !g.Nodes[resume].isSink {
			t.Fatalf("chain of %d nodes resuming at %d", len(chain), resume)
		}
	}); allocs != 0 {
		t.Errorf("OffloadChainAt allocates %.1f times per call, want 0", allocs)
	}
	env := &allocEnv{batchPool: batch.NewPool("alloc", 8)}
	ctx := pctx()
	b := &batch.Batch{}
	b.Add(&packet.Packet{})
	b.Anno[batch.AnnoDevice] = 1
	if allocs := testing.AllocsPerRun(100, func() { g.Inject(env, ctx, b) }); allocs != 0 {
		t.Errorf("intercepting an offloaded batch allocates %.1f times, want 0", allocs)
	}
}
