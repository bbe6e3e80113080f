// Package element defines NBA's packet-processing abstraction: Click-style
// elements extended with batch processing, scheduling and declarative GPU
// offloading (paper §3.2-§3.3).
//
// Element is an element's identity; its computation has exactly one of three
// forms. A PacketElement exposes a per-packet Process and the framework runs
// the iteration loop over batches and handles branching. A BatchElement
// handles whole batches with ProcessBatch. An Offloadable declares datablocks
// and one batch Kernel: the framework runs that same kernel on the CPU or,
// with datablock copies and a kernel launch, on a device — where it runs
// decides only what it costs.
package element

import (
	"fmt"
	"sort"
	"sync"

	"nba/internal/batch"
	"nba/internal/packet"
	"nba/internal/rng"
	"nba/internal/simtime"
)

// Drop is the Process result that discards the packet.
const Drop = batch.ResultDrop

// NodeLocal is the per-NUMA-node shared storage for large read-dominant
// data structures such as forwarding tables (paper §3.2: "elements can
// define and access a shared memory buffer using unique names").
type NodeLocal struct {
	m map[string]any
}

// NewNodeLocal returns empty node-local storage.
func NewNodeLocal() *NodeLocal { return &NodeLocal{m: make(map[string]any)} }

// Get returns the value stored under name, or nil.
func (n *NodeLocal) Get(name string) any { return n.m[name] }

// Set stores value under name.
func (n *NodeLocal) Set(name string, value any) { n.m[name] = value }

// GetOrCreate returns the value under name, invoking build to create and
// store it on first use; a failed build stores nothing. This is how
// per-socket tables are shared across the replicated per-worker pipelines.
func GetOrCreate[T any](n *NodeLocal, name string, build func() (T, error)) (T, error) {
	if v, ok := n.m[name]; ok {
		return v.(T), nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	n.m[name] = v
	return v, nil
}

// shared memoises GetOrCreateShared values across Systems in one process.
// The mutex makes it safe for concurrent System construction (internal/par
// sweeps); whichever case builds a value first, every case reads the same
// one.
var (
	sharedMu sync.Mutex
	shared   = map[string]any{}
)

// GetOrCreateShared is GetOrCreate for a value that is immutable, expensive
// to build and a pure function of name (a FIB, a compiled automaton): build
// runs once per process, not once per socket of every System.
func GetOrCreateShared[T any](n *NodeLocal, name string, build func() (T, error)) (T, error) {
	return GetOrCreate(n, name, func() (T, error) {
		sharedMu.Lock()
		defer sharedMu.Unlock()
		if v, ok := shared[name]; ok {
			return v.(T), nil
		}
		v, err := build()
		if err == nil {
			shared[name] = v
		}
		return v, err
	})
}

// ConfigContext is passed to Configure when the graph is instantiated.
type ConfigContext struct {
	// Socket is the NUMA node this pipeline replica runs on.
	Socket int
	// Worker is the worker-thread index (replica number).
	Worker int
	// NodeLocal is the socket's shared storage.
	NodeLocal *NodeLocal
	// NumPorts is the number of NIC ports in the topology.
	NumPorts int
	// NumDevices is the number of accelerator devices on this socket.
	NumDevices int
	// Rand is a deterministic per-worker PRNG.
	Rand *rng.Rand
}

// ProcContext is passed to an element's compute function during packet
// handling.
type ProcContext struct {
	// Now is the current virtual time.
	Now simtime.Time
	// Worker and Socket identify the executing pipeline replica.
	Worker int
	Socket int
	// NodeLocal is the socket's shared storage.
	NodeLocal *NodeLocal
	// Rand is the worker's deterministic PRNG.
	Rand *rng.Rand
	// CostScale multiplies element costs; the worker sets it per batch to
	// model memory-bandwidth contention and NUMA penalties. Zero is treated
	// as 1.
	CostScale float64
	// Scratch selects which of an element's per-context scratch sets a call
	// may use: ScratchLoop on the event loop, ScratchDevice in the context a
	// System's device executor runs kernels with, on another core, beside
	// event-loop calls to the same element.
	Scratch int
}

// The scratch-set indices of ProcContext.Scratch; an element that keeps
// scratch state keeps ScratchSets of it.
const (
	ScratchLoop = iota
	ScratchDevice
	ScratchSets
)

// Scaled applies the worker's current cost scale (memory contention, NUMA
// penalty) to a cycle count.
//
//nba:hotpath
func (c *ProcContext) Scaled(cy simtime.Cycles) simtime.Cycles {
	if c.CostScale == 0 || c.CostScale == 1 {
		return cy
	}
	return simtime.Cycles(float64(cy) * c.CostScale)
}

// Element is a packet-processing module's identity. Implementations must be
// cheap to replicate: one instance is created per worker. Every element also
// implements exactly one compute form — PacketElement, BatchElement or
// Offloadable — which graph.Build enforces.
type Element interface {
	// Class returns the element class name used in configurations and in
	// the cost model.
	Class() string
	// Configure initialises the element from its configuration parameters.
	Configure(ctx *ConfigContext, args []string) error
	// OutPorts returns the number of output edges.
	OutPorts() int
}

// PacketElement is the per-packet compute form: the framework runs the
// iteration loop over the batch (paper §3.2).
type PacketElement interface {
	Element
	// Process handles one packet and returns the output port index, or
	// Drop to discard the packet.
	Process(ctx *ProcContext, pkt *packet.Packet) int
}

// BatchElement is implemented by elements that process whole batches
// "as-is" without decomposing them (paper §3.2: per-batch elements, e.g.
// queues and load-balancer decision points).
type BatchElement interface {
	Element
	// ProcessBatch handles the whole batch and returns the output port for
	// all of it, or Drop to discard it entirely.
	ProcessBatch(ctx *ProcContext, b *batch.Batch) int
}

// Sink is implemented by per-packet elements that terminate the pipeline
// (ToOutput, Discard): after Process returns, the framework takes ownership
// of the packet (transmit or release) instead of forwarding it along an edge.
type Sink interface {
	PacketElement
	// SinkKind distinguishes transmission from discard.
	SinkKind() SinkKind
}

// SinkKind enumerates pipeline terminations.
type SinkKind int

const (
	// SinkTransmit sends the packet out of the NIC port in its
	// AnnoOutPort annotation.
	SinkTransmit SinkKind = iota
	// SinkDiscard releases the packet.
	SinkDiscard
)

// Source marks the pipeline entry element (FromInput). The framework
// injects received batches into the source's output edge.
type Source interface {
	Element
	IsSource()
}

// Offloadable elements define one batch kernel plus declarative input/output
// datablocks (paper §3.3, Figure 7 and Table 2). The paper's CPU-side and
// device-side functions are the same function here: the load balancer's
// decision selects which cost model times it, never what it computes. An
// offloadable has exactly one output port.
type Offloadable interface {
	Element
	// Datablocks declares the element's device IO.
	Datablocks() []Datablock
	// Kernel performs the element's computation for every live packet of the
	// batch, marking a packet for release with b.SetResult(i, Drop) and
	// leaving every other result as it found it.
	//
	// A kernel may run on a System's device executor at the same time as
	// event-loop calls to the same element: the CPU path, a rescue, the
	// integrity sentinel's re-execution. It therefore writes only its
	// batch's packet bytes, annotations and results, plus scratch it keeps
	// per ctx.Scratch; it never changes a packet's length or the batch's
	// mask, and draws nothing from ctx.Rand (nil on the executor).
	Kernel(ctx *ProcContext, b *batch.Batch)
}

// DatablockKind matches the paper's Table 2 IO types.
type DatablockKind int

const (
	// PartialPacket copies a fixed byte range of each packet.
	PartialPacket DatablockKind = iota
	// WholePacket copies the whole frame from the given offset.
	WholePacket
	// UserData copies per-packet bytes produced/consumed by user pre/post
	// processing functions.
	UserData
)

func (k DatablockKind) String() string {
	switch k {
	case PartialPacket:
		return "partial_pkt"
	case WholePacket:
		return "whole_pkt"
	case UserData:
		return "user"
	default:
		return fmt.Sprintf("datablock(%d)", int(k))
	}
}

// Datablock is a declarative input/output data definition. The framework
// uses it to size host<->device copies and to reuse device-resident data
// between offloadable elements sharing the same Name (paper §3.3:
// "the framework can ... extract chances of reusing GPU-resident data").
type Datablock struct {
	// Name identifies the datablock; elements naming the same datablock
	// share its device buffer.
	Name string
	Kind DatablockKind
	// Offset/Length describe the byte range for PartialPacket.
	Offset, Length int
	// SizeDelta adjusts the copied size for WholePacket (e.g. appended MAC).
	SizeDelta int
	// UserBytes is the per-packet size for UserData.
	UserBytes int
	// H2D/D2H flag the copy directions this element needs.
	H2D, D2H bool
}

// BytesFor returns the number of bytes this datablock moves (per direction)
// for a packet of the given frame length.
func (d Datablock) BytesFor(frameLen int) int {
	switch d.Kind {
	case PartialPacket:
		n := d.Length
		if d.Offset+n > frameLen {
			n = frameLen - d.Offset
		}
		if n < 0 {
			n = 0
		}
		return n
	case WholePacket:
		n := frameLen - d.Offset + d.SizeDelta
		if n < 0 {
			n = 0
		}
		return n
	case UserData:
		return d.UserBytes
	default:
		return 0
	}
}

// Factory creates a fresh element instance.
type Factory func() Element

var registry = map[string]Factory{}

// Register binds an element class name to its factory. Registering the same
// class twice panics: it indicates conflicting element libraries.
func Register(class string, f Factory) {
	if _, dup := registry[class]; dup {
		panic(fmt.Sprintf("element: class %q registered twice", class))
	}
	registry[class] = f
}

// NewByClass instantiates an element by class name.
func NewByClass(class string) (Element, error) {
	f, ok := registry[class]
	if !ok {
		return nil, fmt.Errorf("element: unknown class %q", class)
	}
	return f(), nil
}

// Classes returns the registered class names (for diagnostics).
func Classes() []string {
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
