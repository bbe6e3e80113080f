// Package graph implements NBA's ElementGraph: the batch-oriented modular
// pipeline that traverses user-defined elements until a batch is stored,
// dropped or transmitted (paper §3.2).
//
// It owns the two techniques the paper introduces to make computation
// batching cheap in the presence of branches:
//
//   - multi-edge branch avoidance by carrying the output NIC port as an
//     annotation and split-forwarding at the end of the pipeline, and
//   - batch-level branch prediction: the input batch object is reused for
//     the output edge that took the most packets last time, with minority
//     packets masked out and moved into newly allocated split batches.
package graph

import (
	"fmt"

	"nba/internal/batch"
	"nba/internal/conflang"
	"nba/internal/element"
	"nba/internal/packet"
	"nba/internal/simtime"
	"nba/internal/sysinfo"
	"nba/internal/trace"
)

// unconnected marks an output port with no successor.
const unconnected = -1

// Node is one element instance in the graph.
type Node struct {
	ID   int
	Name string
	Elem element.Element

	// out maps output-port index to successor node ID (or unconnected).
	out []int

	// The element's one compute form (exactly one is non-nil), and cached
	// interface upgrades.
	pktElem     element.PacketElement
	batchElem   element.BatchElement
	offloadable element.Offloadable
	sinkKind    element.SinkKind
	isSink      bool
	isSource    bool

	// chain and resume are OffloadChainAt's answer for an offloadable node,
	// fixed once Build has wired the graph.
	chain  []*Node
	resume int

	cost sysinfo.ElementCost

	// predCount tracks, per output port, how many packets took that port
	// last time a real branch occurred at this node (paper §3.2: "each
	// output port of a module tracks the number of packets who take the
	// path starting with it").
	predCount []uint64

	// Stats.
	Processed uint64 // packets processed
	Dropped   uint64 // packets dropped here
	Splits    uint64 // split batches allocated at this node
	Reuses    uint64 // branch-predicted batch reuses
}

// IsOffloadable reports whether the node's element is an offloadable (a
// batch kernel with datablocks) that the load balancer may send to a device.
func (n *Node) IsOffloadable() bool { return n.offloadable != nil }

// Offloadable returns the node's offloadable interface (nil if none).
func (n *Node) Offloadable() element.Offloadable { return n.offloadable }

// RunOnCPU runs offloadable node n's kernel over b on the CPU and returns
// what that costs there: the node's per-packet CPU cost summed over b's live
// packets, unscaled — the caller applies ProcContext.CostScale at its own
// granularity. Every CPU execution of a kernel goes through here: the
// pipeline's CPU path, the rescue of an aggregate the device never ran, and
// the sentinel's re-execution.
//
//nba:hotpath
func (n *Node) RunOnCPU(pctx *element.ProcContext, b *batch.Batch) simtime.Cycles {
	var cycles simtime.Cycles
	b.ForEachLive(func(i int, pkt *packet.Packet) {
		cycles += n.cost.Cycles(pkt.Length())
	})
	n.offloadable.Kernel(pctx, b)
	return cycles
}

// Options control graph execution behaviour.
type Options struct {
	// BranchPrediction enables batch reuse at branches (paper Figure 10).
	// When disabled, every branch splits all paths into new batches (the
	// Figure 1 worst case).
	BranchPrediction bool
	// OffloadChaining fuses consecutive offloadable elements into one
	// device task sharing datablocks (the paper's §3.3 datablock reuse
	// optimisation). When disabled each offloadable element becomes its own
	// task with its own copies.
	OffloadChaining bool
}

// DefaultOptions returns the production configuration.
func DefaultOptions() Options {
	return Options{BranchPrediction: true, OffloadChaining: true}
}

// Env is the set of framework services the executor needs. The worker
// loop implements it.
type Env interface {
	// Transmit hands a fully processed packet to the TX path.
	Transmit(pkt *packet.Packet)
	// ReleasePacket returns a dropped packet to its mempool.
	ReleasePacket(pkt *packet.Packet)
	// GetBatch allocates a batch for splitting; it may fail under pressure.
	GetBatch() (*batch.Batch, error)
	// PutBatch returns an empty or consumed batch to the pool.
	PutBatch(b *batch.Batch)
	// Offload takes ownership of a batch that the load balancer routed to a
	// device, at the given offloadable node. The framework resumes
	// processing at resumeNode (or finishes if resumeNode is unconnected)
	// once the device completes.
	Offload(head *Node, chain []*Node, resumeNode int, b *batch.Batch)
	// Charge accounts CPU cycles to the current worker.
	Charge(c simtime.Cycles)
}

// Graph is one replica of the element pipeline (one per worker).
type Graph struct {
	Nodes  []*Node
	Source *Node
	opts   Options
	cm     *sysinfo.CostModel

	// DropUnrouted counts packets that reached an unconnected output port.
	DropUnrouted uint64

	// Tracer, when non-nil, receives one trace.KindBatch event per element
	// batch (element name, live packets, cycles charged, node ID). TraceNow
	// supplies the worker's current virtual time, TraceActor identifies
	// the worker and TraceTenant the tenant whose graph this is (trace.
	// NoTenant when unowned). These are optional observability hooks set by
	// the owning worker; they are deliberately not part of the Env
	// interface so test environments need not implement them.
	Tracer      *trace.Tracer
	TraceNow    func() simtime.Time
	TraceActor  int32
	TraceTenant int32

	// Traversal scratch, reused across batches so the steady-state pipeline
	// allocates nothing (the alloc_test gate). stack is shared by nested
	// RunFrom invocations (an offload completing synchronously re-enters the
	// executor) via a base index; histScratch and splitScratch are sized in
	// Build to the widest node and only live within one forward call.
	stack        []workItem
	histScratch  []int
	splitScratch []*batch.Batch
}

// Build instantiates a parsed configuration into an executable graph,
// creating and configuring one element instance per declaration.
func Build(cfg *conflang.Config, cctx *element.ConfigContext, cm *sysinfo.CostModel, opts Options) (*Graph, error) {
	g := &Graph{opts: opts, cm: cm}
	byName := map[string]*Node{}

	for _, d := range cfg.Decls {
		elem, err := element.NewByClass(d.Class)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", d.Line, err)
		}
		if err := elem.Configure(cctx, d.Params); err != nil {
			return nil, fmt.Errorf("line %d: configuring %s (%s): %w", d.Line, d.Name, d.Class, err)
		}
		n := &Node{
			ID:   len(g.Nodes),
			Name: d.Name,
			Elem: elem,
			cost: cm.ElementCostOf(d.Class),
		}
		n.out = make([]int, elem.OutPorts())
		for i := range n.out {
			n.out[i] = unconnected
		}
		n.predCount = make([]uint64, elem.OutPorts())
		forms := 0
		if n.pktElem, _ = elem.(element.PacketElement); n.pktElem != nil {
			forms++
		}
		if n.batchElem, _ = elem.(element.BatchElement); n.batchElem != nil {
			forms++
		}
		if n.offloadable, _ = elem.(element.Offloadable); n.offloadable != nil {
			forms++
		}
		if forms != 1 {
			return nil, fmt.Errorf("line %d: %s (%s) implements %d compute forms, want exactly one of Process, ProcessBatch and Kernel",
				d.Line, d.Name, d.Class, forms)
		}
		if n.offloadable != nil && len(n.out) != 1 {
			// The device path resumes an aggregate at the chain's single
			// successor; any other shape has no defined resume point.
			return nil, fmt.Errorf("line %d: offloadable %s (%s) has %d output ports, want 1",
				d.Line, d.Name, d.Class, len(n.out))
		}
		if s, ok := elem.(element.Sink); ok {
			n.isSink = true
			n.sinkKind = s.SinkKind()
		}
		if _, ok := elem.(element.Source); ok {
			n.isSource = true
		}
		g.Nodes = append(g.Nodes, n) //nbalint:allow sharedstate graphs also build inside admit epochs on the serial engine; report reads Nodes after the event loop drains
		byName[d.Name] = n
	}

	for _, e := range cfg.Edges {
		from, to := byName[e.From], byName[e.To]
		if e.FromPort >= len(from.out) {
			return nil, fmt.Errorf("line %d: %s has no output port %d (element %s has %d)",
				e.Line, e.From, e.FromPort, from.Elem.Class(), len(from.out))
		}
		if from.out[e.FromPort] != unconnected {
			return nil, fmt.Errorf("line %d: output port %d of %s connected twice", e.Line, e.FromPort, e.From)
		}
		if to.isSource {
			return nil, fmt.Errorf("line %d: cannot connect into source element %s", e.Line, e.To)
		}
		from.out[e.FromPort] = to.ID
	}

	maxPorts := 1
	for _, n := range g.Nodes {
		if len(n.out) > maxPorts {
			maxPorts = len(n.out)
		}
	}
	g.histScratch = make([]int, maxPorts+2)
	g.splitScratch = make([]*batch.Batch, maxPorts)

	if err := g.validate(); err != nil {
		return g, err
	}
	for _, n := range g.Nodes { // after validate: the walk needs a DAG
		if n.offloadable != nil {
			n.chain, n.resume = g.offloadChain(n)
		}
	}
	return g, nil
}

func (g *Graph) validate() error {
	for _, n := range g.Nodes {
		if n.isSource {
			if g.Source != nil {
				return fmt.Errorf("graph: multiple source elements (%s and %s)", g.Source.Name, n.Name)
			}
			g.Source = n
		}
	}
	if g.Source == nil {
		return fmt.Errorf("graph: no source element (add FromInput)")
	}
	if g.Source.out[0] == unconnected {
		return fmt.Errorf("graph: source %s is not connected to anything", g.Source.Name)
	}
	// Reject cycles: the push-only executor requires a DAG.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make([]int, len(g.Nodes))
	var visit func(id int) error
	visit = func(id int) error {
		color[id] = grey
		for _, s := range g.Nodes[id].out {
			if s == unconnected {
				continue
			}
			switch color[s] {
			case grey:
				return fmt.Errorf("graph: cycle through %s", g.Nodes[s].Name)
			case white:
				if err := visit(s); err != nil {
					return err
				}
			}
		}
		color[id] = black
		return nil
	}
	for _, n := range g.Nodes {
		if color[n.ID] == white {
			if err := visit(n.ID); err != nil {
				return err
			}
		}
	}
	// A sink must be reachable from the source, or every packet leaks.
	reach := map[int]bool{}
	var walk func(id int)
	walk = func(id int) {
		if reach[id] {
			return
		}
		reach[id] = true
		for _, s := range g.Nodes[id].out {
			if s != unconnected {
				walk(s)
			}
		}
	}
	walk(g.Source.ID)
	for _, n := range g.Nodes {
		if reach[n.ID] && n.isSink {
			return nil
		}
	}
	return fmt.Errorf("graph: no sink (ToOutput/Discard) reachable from source")
}

// NodeByName returns the named node, or nil.
func (g *Graph) NodeByName(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// OffloadChainAt returns the maximal run of consecutive offloadable nodes
// beginning at the offloadable node head (following single output edges),
// honouring the OffloadChaining option, and the node ID processing resumes
// at afterwards. The chain is computed at Build and shared by every caller:
// it must not be modified.
//
//nba:hotpath
func (g *Graph) OffloadChainAt(head *Node) (chain []*Node, resume int) {
	return head.chain, head.resume
}

func (g *Graph) offloadChain(head *Node) (chain []*Node, resume int) {
	chain = []*Node{head}
	cur := head
	for {
		next := cur.out[0] // Build admits an offloadable only with one output
		if next == unconnected {
			return chain, unconnected
		}
		nn := g.Nodes[next]
		if !g.opts.OffloadChaining || nn.offloadable == nil {
			return chain, next
		}
		chain = append(chain, nn)
		cur = nn
	}
}

// workItem is one pending (node, batch) pair during traversal.
type workItem struct {
	node int
	b    *batch.Batch
}

// Inject runs a freshly received batch through the pipeline, starting at
// the source's successor. The graph takes ownership of the batch.
//
//nba:hotpath
func (g *Graph) Inject(env Env, pctx *element.ProcContext, b *batch.Batch) {
	g.RunFrom(env, pctx, g.Source.out[0], b)
}

// push schedules a (node, batch) pair on the shared traversal stack.
//
//nba:hotpath
func (g *Graph) push(node int, b *batch.Batch) {
	g.stack = append(g.stack, workItem{node: node, b: b}) //nbalint:allow hotalloc stack capacity reaches a steady state after the first branchy traversals
}

// RunFrom processes a batch beginning at the given node (used by Inject and
// to resume after offload completion). Passing unconnected finishes the
// batch: remaining packets are treated as unrouted drops.
//
// The traversal stack is a reusable field rather than a local so steady
// state allocates nothing; a base index makes the loop re-entrant, since
// step can reach back into RunFrom (an Offload that falls back to the CPU
// resumes the aggregate synchronously).
//
//nba:hotpath
func (g *Graph) RunFrom(env Env, pctx *element.ProcContext, nodeID int, b *batch.Batch) {
	base := len(g.stack)
	g.push(nodeID, b)
	for len(g.stack) > base {
		n := len(g.stack) - 1
		item := g.stack[n]
		g.stack[n] = workItem{}
		g.stack = g.stack[:n]
		g.step(env, pctx, item)
	}
}

//nba:hotpath
func (g *Graph) step(env Env, pctx *element.ProcContext, item workItem) {
	b := item.b
	if b.Live() == 0 {
		env.Charge(g.cm.BatchFree)
		env.PutBatch(b)
		return
	}
	if item.node == unconnected {
		g.DropUnrouted += uint64(b.Live())
		g.dropAll(env, b, nil)
		return
	}
	n := g.Nodes[item.node]
	env.Charge(g.cm.ElementDispatch + g.cm.GraphTraverse)

	// Offload interception: a batch whose device annotation selects an
	// accelerator leaves the CPU pipeline here (paper Figure 7).
	if n.offloadable != nil && b.Anno[batch.AnnoDevice] != batch.CPUDevice {
		chain, resume := g.OffloadChainAt(n)
		env.Offload(n, chain, resume, b)
		return
	}

	// Per-batch elements run once per batch without decomposing it.
	if n.batchElem != nil {
		live := b.Live()
		charged := pctx.Scaled(n.cost.Fixed + simtime.Cycles(n.cost.PerByte*float64(b.TotalBytes())))
		env.Charge(charged)
		if g.Tracer != nil {
			g.Tracer.EmitT(g.TraceNow(), trace.KindBatch, g.TraceActor, g.TraceTenant, n.Name,
				int64(live), int64(charged), int64(n.ID), 0)
		}
		r := n.batchElem.ProcessBatch(pctx, b)
		n.Processed += uint64(b.Live()) //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
		if r == batch.ResultDrop {
			n.Dropped += uint64(b.Live())
			g.dropAll(env, b, nil)
			return
		}
		if r >= len(n.out) {
			panic(fmt.Sprintf("graph: %s returned port %d of %d", n.Name, r, len(n.out)))
		}
		g.push(n.out[r], b)
		return
	}

	var cycles simtime.Cycles
	live := b.Live()
	if n.offloadable != nil {
		// The CPU runs an offloadable's one kernel over the batch. A kernel
		// only marks drops, so every other result is cleared for it.
		b.ForEachLive(func(i int, _ *packet.Packet) { b.SetResult(i, 0) })
		cycles = n.RunOnCPU(pctx, b)
		n.Processed += uint64(live)
	} else {
		// Per-packet elements: the framework runs the iteration loop (paper
		// §3.2: "NBA runs an iteration loop over packets in the input batch
		// at every element whereas elements expose only a per-packet
		// interface").
		nOut := len(n.out)
		b.ForEachLive(func(i int, pkt *packet.Packet) {
			r := n.pktElem.Process(pctx, pkt)
			if r >= nOut && !n.isSink {
				panic(fmt.Sprintf("graph: %s returned port %d of %d", n.Name, r, nOut))
			}
			b.SetResult(i, r)
			cycles += n.cost.Cycles(pkt.Length())
			n.Processed++
		})
	}
	charged := pctx.Scaled(cycles)
	env.Charge(charged)
	if g.Tracer != nil {
		g.Tracer.EmitT(g.TraceNow(), trace.KindBatch, g.TraceActor, g.TraceTenant, n.Name,
			int64(live), int64(charged), int64(n.ID), 0)
	}

	if n.isSink {
		g.finishAtSink(env, n, b)
		return
	}

	g.forward(env, n, b)
}

//nba:hotpath
func (g *Graph) finishAtSink(env Env, n *Node, b *batch.Batch) {
	if n.sinkKind == element.SinkTransmit {
		env.Charge(g.cm.TxBatchFixed)
		var cycles simtime.Cycles
		b.ForEachLive(func(i int, pkt *packet.Packet) {
			cycles += g.cm.TxPerPacket
			env.Transmit(pkt)
		})
		env.Charge(cycles)
	} else {
		b.ForEachLive(func(i int, pkt *packet.Packet) {
			n.Dropped++
			env.ReleasePacket(pkt)
		})
	}
	env.Charge(g.cm.BatchFree)
	env.PutBatch(b)
}

// dropAll releases every live packet and the batch itself. If n is non-nil
// its drop counter is charged.
//
//nba:hotpath
func (g *Graph) dropAll(env Env, b *batch.Batch, n *Node) {
	b.ForEachLive(func(i int, pkt *packet.Packet) {
		if n != nil {
			n.Dropped++
		}
		env.ReleasePacket(pkt)
	})
	env.Charge(g.cm.BatchFree)
	env.PutBatch(b)
}

// forward routes a processed batch to successor nodes, handling drops,
// single-path fast forwarding, and branches with prediction or splitting.
//
//nba:hotpath
func (g *Graph) forward(env Env, n *Node, b *batch.Batch) {
	hist := g.histScratch
	b.ResultHistogramInto(hist, len(n.out)-1)

	// Release dropped packets (hist[0]).
	if hist[0] > 0 {
		var cycles simtime.Cycles
		for i := 0; i < b.Count(); i++ {
			if !b.IsMasked(i) && b.Result(i) == batch.ResultDrop {
				n.Dropped++
				env.ReleasePacket(b.Packet(i))
				b.Mask(i)
				cycles += g.cm.MaskPerPacket
			}
		}
		env.Charge(cycles)
		if b.Live() == 0 {
			env.Charge(g.cm.BatchFree)
			env.PutBatch(b)
			return
		}
	}

	// Count populated output ports.
	populated := 0
	lastPort := 0
	for p := 0; p < len(n.out); p++ {
		if hist[p+1] > 0 {
			populated++
			lastPort = p
		}
	}

	if populated == 1 && (g.opts.BranchPrediction || len(n.out) == 1) {
		// Fast path: whole batch takes one edge; reuse it as-is. With
		// branch prediction disabled, multi-edge nodes always split into
		// fresh batches (the paper's Figure 1 worst case does no reuse at
		// all), so the fast path only applies to single-edge nodes there.
		g.push(n.out[lastPort], b)
		return
	}

	// Real branch.
	env.Charge(g.cm.BranchCheck)

	reusePort := -1
	if g.opts.BranchPrediction {
		// Reuse the input batch for the port that carried the most packets
		// last time (paper §3.2). Seed with the current histogram on the
		// first branch.
		var best uint64
		for p := 0; p < len(n.out); p++ {
			if n.predCount[p] > best {
				best = n.predCount[p]
				reusePort = p
			}
		}
		if reusePort == -1 {
			for p := 0; p < len(n.out); p++ {
				if hist[p+1] > 0 && (reusePort == -1 || hist[p+1] > hist[reusePort+1]) {
					reusePort = p
				}
			}
		}
	}
	for p := 0; p < len(n.out); p++ {
		n.predCount[p] = uint64(hist[p+1])
	}

	// Move packets of non-reuse ports into split batches. splits is the
	// port-indexed scratch sized at Build; entries are cleared before the
	// function returns, so no batch pointer outlives the call.
	var cycles simtime.Cycles
	splits := g.splitScratch
	for i := 0; i < b.Count(); i++ {
		if b.IsMasked(i) {
			continue
		}
		r := b.Result(i)
		if r == reusePort {
			continue
		}
		sb := splits[r]
		if sb == nil {
			nb, err := env.GetBatch()
			if err != nil {
				// Batch pool exhausted: drop this path's packets. Counted
				// as drops; the failure-injection tests cover this.
				n.Dropped++
				env.ReleasePacket(b.Packet(i))
				b.Mask(i)
				continue
			}
			env.Charge(g.cm.BatchAlloc)
			nb.Anno = b.Anno
			splits[r] = nb
			sb = nb
			n.Splits++ //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
		}
		sb.Add(b.Packet(i))
		b.Mask(i)
		cycles += g.cm.SplitPerPacket + g.cm.MaskPerPacket
	}
	env.Charge(cycles)

	// Dispatch split batches (in deterministic port order), clearing the
	// scratch as we go.
	for p := 0; p < len(n.out); p++ {
		if sb := splits[p]; sb != nil {
			splits[p] = nil
			g.push(n.out[p], sb)
		}
	}

	if reusePort >= 0 && b.Live() > 0 {
		n.Reuses++ //nbalint:allow sharedstate stats counter; read happens-after the event loop drains
		g.push(n.out[reusePort], b)
	} else {
		env.Charge(g.cm.BatchFree)
		env.PutBatch(b)
	}
}
