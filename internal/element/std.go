package element

import (
	"fmt"
	"strconv"

	"nba/internal/packet"
)

func init() {
	Register("FromInput", func() Element { return &FromInput{} })
	Register("ToOutput", func() Element { return &ToOutput{} })
	Register("Discard", func() Element { return &Discard{} })
	Register("NoOp", func() Element { return &NoOp{} })
	Register("L2Forward", func() Element { return &L2Forward{} })
	Register("EchoBack", func() Element { return &EchoBack{} })
	Register("CheckIPHeader", func() Element { return &CheckIPHeader{} })
	Register("CheckIP6Header", func() Element { return &CheckIP6Header{} })
	Register("DecIPTTL", func() Element { return &DecIPTTL{} })
	Register("DecIP6HLIM", func() Element { return &DecIP6HLIM{} })
	Register("Classifier", func() Element { return &Classifier{} })
	Register("RandomWeightedBranch", func() Element { return &RandomWeightedBranch{} })
}

// Base provides default method implementations for simple elements.
type Base struct{}

// Configure accepts no parameters by default.
func (Base) Configure(ctx *ConfigContext, args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("element takes no parameters, got %d", len(args))
	}
	return nil
}

// OutPorts defaults to a single output edge.
func (Base) OutPorts() int { return 1 }

// FromInput is the pipeline entry: the framework injects received batches
// at its output edge. It is never executed per packet.
type FromInput struct{ Base }

func (*FromInput) Class() string                                    { return "FromInput" }
func (*FromInput) IsSource()                                        {}
func (*FromInput) Process(ctx *ProcContext, pkt *packet.Packet) int { return 0 }

// ToOutput terminates the pipeline by transmitting each packet out of the
// NIC port in its AnnoOutPort annotation (paper §3.2: "routing elements now
// use annotation to specify the outgoing NIC port and the framework
// recognizes it after the end of the pipeline").
type ToOutput struct{ Base }

func (*ToOutput) Class() string                                    { return "ToOutput" }
func (*ToOutput) OutPorts() int                                    { return 0 }
func (*ToOutput) SinkKind() SinkKind                               { return SinkTransmit }
func (*ToOutput) Process(ctx *ProcContext, pkt *packet.Packet) int { return 0 }

// Discard terminates the pipeline by releasing each packet.
type Discard struct{ Base }

func (*Discard) Class() string                                    { return "Discard" }
func (*Discard) OutPorts() int                                    { return 0 }
func (*Discard) SinkKind() SinkKind                               { return SinkDiscard }
func (*Discard) Process(ctx *ProcContext, pkt *packet.Packet) int { return 0 }

// NoOp passes packets through unchanged; it exists for the composition
// overhead experiment (paper §4.2).
type NoOp struct{ Base }

func (*NoOp) Class() string                                    { return "NoOp" }
func (*NoOp) Process(ctx *ProcContext, pkt *packet.Packet) int { return 0 }

// L2Forward swaps source and destination MAC addresses and spreads packets
// round-robin over all NIC ports (the paper's minimal L2fwd application,
// §4.6).
type L2Forward struct {
	Base
	numPorts int
	next     int
}

func (*L2Forward) Class() string { return "L2Forward" }

func (e *L2Forward) Configure(ctx *ConfigContext, args []string) error {
	if len(args) != 0 {
		return fmt.Errorf("L2Forward takes no parameters, got %d", len(args))
	}
	e.numPorts = ctx.NumPorts
	return nil
}

func (e *L2Forward) Process(ctx *ProcContext, pkt *packet.Packet) int {
	packet.SwapEthAddrs(pkt.Data())
	pkt.Anno[packet.AnnoOutPort] = uint64(e.next)
	e.next++
	if e.next >= e.numPorts {
		e.next = 0
	}
	return 0
}

// EchoBack swaps MACs and returns the packet out of its input port.
type EchoBack struct{ Base }

func (*EchoBack) Class() string { return "EchoBack" }
func (*EchoBack) Process(ctx *ProcContext, pkt *packet.Packet) int {
	packet.SwapEthAddrs(pkt.Data())
	pkt.Anno[packet.AnnoOutPort] = uint64(pkt.InPort)
	return 0
}

// CheckIPHeader validates IPv4 headers and drops invalid packets (the
// paper's canonical mostly-one-way branch, handled by branch prediction).
type CheckIPHeader struct{ Base }

func (*CheckIPHeader) Class() string { return "CheckIPHeader" }
func (*CheckIPHeader) Process(ctx *ProcContext, pkt *packet.Packet) int {
	f := pkt.Data()
	if len(f) < packet.EthHdrLen+packet.IPv4HdrLen || packet.EthType(f) != packet.EtherTypeIPv4 {
		return Drop
	}
	if packet.CheckIPv4(f[packet.EthHdrLen:]) != nil {
		return Drop
	}
	return 0
}

// CheckIP6Header validates IPv6 headers and drops invalid packets.
type CheckIP6Header struct{ Base }

func (*CheckIP6Header) Class() string { return "CheckIP6Header" }
func (*CheckIP6Header) Process(ctx *ProcContext, pkt *packet.Packet) int {
	f := pkt.Data()
	if len(f) < packet.EthHdrLen+packet.IPv6HdrLen || packet.EthType(f) != packet.EtherTypeIPv6 {
		return Drop
	}
	if packet.CheckIPv6(f[packet.EthHdrLen:]) != nil {
		return Drop
	}
	return 0
}

// DecIPTTL decrements the IPv4 TTL with an incremental checksum update,
// dropping expired packets.
type DecIPTTL struct{ Base }

func (*DecIPTTL) Class() string { return "DecIPTTL" }
func (*DecIPTTL) Process(ctx *ProcContext, pkt *packet.Packet) int {
	if packet.DecIPv4TTL(pkt.Data()[packet.EthHdrLen:]) != nil {
		return Drop
	}
	return 0
}

// DecIP6HLIM decrements the IPv6 hop limit, dropping expired packets.
type DecIP6HLIM struct{ Base }

func (*DecIP6HLIM) Class() string { return "DecIP6HLIM" }
func (*DecIP6HLIM) Process(ctx *ProcContext, pkt *packet.Packet) int {
	if packet.DecIPv6HopLimit(pkt.Data()[packet.EthHdrLen:]) != nil {
		return Drop
	}
	return 0
}

// Classifier routes packets to output edges by EtherType. Parameters are a
// list of "ip" / "ip6" / "-" (match-all) patterns, one per output edge.
type Classifier struct {
	patterns []uint16 // 0 = match-all
}

func (*Classifier) Class() string { return "Classifier" }

func (e *Classifier) Configure(ctx *ConfigContext, args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("Classifier needs at least one pattern")
	}
	for _, a := range args {
		switch a {
		case "ip":
			e.patterns = append(e.patterns, packet.EtherTypeIPv4)
		case "ip6":
			e.patterns = append(e.patterns, packet.EtherTypeIPv6)
		case "-":
			e.patterns = append(e.patterns, 0)
		default:
			return fmt.Errorf("Classifier: unknown pattern %q", a)
		}
	}
	return nil
}

func (e *Classifier) OutPorts() int { return len(e.patterns) }

func (e *Classifier) Process(ctx *ProcContext, pkt *packet.Packet) int {
	t := packet.EthType(pkt.Data())
	for i, p := range e.patterns {
		if p == 0 || p == t {
			return i
		}
	}
	return Drop
}

// RandomWeightedBranch sends each packet to output edge 1 with the
// configured probability and edge 0 otherwise. It is the synthetic two-way
// branch of the batch-split experiments (paper Figures 1 and 10).
type RandomWeightedBranch struct {
	minorityFrac float64
}

func (*RandomWeightedBranch) Class() string { return "RandomWeightedBranch" }

func (e *RandomWeightedBranch) Configure(ctx *ConfigContext, args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("RandomWeightedBranch needs one parameter (minority fraction)")
	}
	f, err := strconv.ParseFloat(args[0], 64)
	if err != nil || !(f >= 0 && f <= 1) { // the negated form also rejects NaN
		return fmt.Errorf("RandomWeightedBranch: bad fraction %q", args[0])
	}
	e.minorityFrac = f
	return nil
}

func (e *RandomWeightedBranch) OutPorts() int { return 2 }

func (e *RandomWeightedBranch) Process(ctx *ProcContext, pkt *packet.Packet) int {
	if ctx.Rand.Bool(e.minorityFrac) {
		return 1
	}
	return 0
}

// ClassicAdapter adapts a classic Click-style per-packet handler function
// into an NBA element (paper §7: migration of existing Click elements). The
// handler returns the output edge ID, translating Click's push-port calls.
type ClassicAdapter struct {
	Base
	class    string
	outPorts int
	handler  func(*ProcContext, *packet.Packet) int
}

// NewClassicAdapter wraps handler as an element of the given class name
// with the given number of output ports.
func NewClassicAdapter(class string, outPorts int, handler func(*ProcContext, *packet.Packet) int) *ClassicAdapter {
	return &ClassicAdapter{class: class, outPorts: outPorts, handler: handler}
}

func (e *ClassicAdapter) Class() string { return e.class }
func (e *ClassicAdapter) OutPorts() int { return e.outPorts }
func (e *ClassicAdapter) Process(ctx *ProcContext, pkt *packet.Packet) int {
	return e.handler(ctx, pkt)
}
