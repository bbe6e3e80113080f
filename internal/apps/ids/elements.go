package ids

import (
	"fmt"
	"sync"

	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/packet"
)

func init() {
	element.Register("IDSMatchAC", func() element.Element { return &MatchAC{} })
	element.Register("IDSMatchRE", func() element.Element { return &MatchRE{} })
	element.Register("IDSRuleMatch", func() element.Element { return &IDSRuleMatch{} })
}

// matchMode selects what happens to matched packets.
type matchMode int

const (
	modeAlert matchMode = iota // annotate and forward
	modeDrop                   // drop matched packets
)

func parseMode(args []string) (matchMode, error) {
	switch {
	case len(args) == 0 || args[0] == "alert":
		return modeAlert, nil
	case args[0] == "drop":
		return modeDrop, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want alert or drop)", args[0])
	}
}

// payloadOf returns the scan region: everything after the Ethernet header.
func payloadOf(pkt *packet.Packet) []byte {
	f := pkt.Data()
	if len(f) <= packet.EthHdrLen {
		return nil
	}
	return f[packet.EthHdrLen:]
}

// MatchAC is the offloadable Aho-Corasick signature matching element.
// Parameter: "alert" (default) or "drop".
type MatchAC struct {
	ac   *AC
	mode matchMode
	// Matches counts matched packets.
	Matches uint64
}

// Class implements element.Element.
func (*MatchAC) Class() string { return "IDSMatchAC" }

// OutPorts implements element.Element.
func (*MatchAC) OutPorts() int { return 1 }

// Configure implements element.Element.
func (e *MatchAC) Configure(ctx *element.ConfigContext, args []string) error {
	mode, err := parseMode(args)
	if err != nil {
		return fmt.Errorf("IDSMatchAC: %w", err)
	}
	e.mode = mode
	var berr error
	e.ac = element.GetOrCreate(ctx.NodeLocal, "ids.ac.default", func() *AC {
		cacheMu.Lock()
		defer cacheMu.Unlock()
		if cachedAC != nil {
			return cachedAC
		}
		a, err := BuildAC(DefaultSignatures)
		if err != nil {
			berr = err
			return a
		}
		cachedAC = a
		return a
	})
	return berr
}

// cachedAC/cachedDFA share the immutable default automata across Systems.
// The mutex makes the lazy build safe for concurrent System construction
// (internal/par sweeps); the automata are pure functions of the built-in
// rule sets.
var (
	cacheMu   sync.Mutex
	cachedAC  *AC
	cachedDFA *DFA
)

func (e *MatchAC) handle(pkt *packet.Packet, id int) int {
	if id < 0 {
		return 0
	}
	e.Matches++
	pkt.Anno[packet.AnnoMatchResult] = uint64(id) + 1
	if e.mode == modeDrop {
		return element.Drop
	}
	return 0
}

// Process implements the CPU-side function.
func (e *MatchAC) Process(ctx *element.ProcContext, pkt *packet.Packet) int {
	return e.handle(pkt, e.ac.Match(payloadOf(pkt)))
}

// Datablocks implements element.Offloadable: payload in, 4-byte verdict out.
func (e *MatchAC) Datablocks() []element.Datablock {
	return []element.Datablock{
		{Name: "ids.payload", Kind: element.WholePacket, Offset: packet.EthHdrLen, H2D: true},
		{Name: "ids.verdict", Kind: element.UserData, UserBytes: 4, D2H: true},
	}
}

// ProcessOffloaded implements the device-side function: one batch kernel
// over all live packets, then the per-packet verdicts in slot order.
//
//nba:hotpath
func (e *MatchAC) ProcessOffloaded(ctx *element.ProcContext, b *batch.Batch) {
	var ids [batch.MaxBatchSize]int32
	e.ac.matchBatch(b, &ids)
	b.ForEachLive(func(i int, pkt *packet.Packet) {
		if e.handle(pkt, int(ids[i])) == element.Drop {
			b.SetResult(i, batch.ResultDrop)
		}
	})
}

// MatchRE is the offloadable regular-expression matching element.
// Parameter: "alert" (default) or "drop".
type MatchRE struct {
	dfa  *DFA
	mode matchMode
	// Matches counts matched packets.
	Matches uint64
}

// Class implements element.Element.
func (*MatchRE) Class() string { return "IDSMatchRE" }

// OutPorts implements element.Element.
func (*MatchRE) OutPorts() int { return 1 }

// Configure implements element.Element.
func (e *MatchRE) Configure(ctx *element.ConfigContext, args []string) error {
	mode, err := parseMode(args)
	if err != nil {
		return fmt.Errorf("IDSMatchRE: %w", err)
	}
	e.mode = mode
	var berr error
	e.dfa = element.GetOrCreate(ctx.NodeLocal, "ids.re.default", func() *DFA {
		cacheMu.Lock()
		defer cacheMu.Unlock()
		if cachedDFA != nil {
			return cachedDFA
		}
		d, err := CompileRules(DefaultRegexRules)
		if err != nil {
			berr = err
			return d
		}
		cachedDFA = d
		return d
	})
	return berr
}

func (e *MatchRE) handle(pkt *packet.Packet, id int) int {
	if id < 0 {
		return 0
	}
	e.Matches++
	// Regex rule IDs occupy the annotation above the AC signature space.
	pkt.Anno[packet.AnnoMatchResult] = uint64(id) + 1 + uint64(len(DefaultSignatures))
	if e.mode == modeDrop {
		return element.Drop
	}
	return 0
}

// Process implements the CPU-side function.
func (e *MatchRE) Process(ctx *element.ProcContext, pkt *packet.Packet) int {
	return e.handle(pkt, e.dfa.Match(payloadOf(pkt)))
}

// Datablocks implements element.Offloadable (shares the payload block with
// MatchAC so a chained offload uploads the payload once).
func (e *MatchRE) Datablocks() []element.Datablock {
	return []element.Datablock{
		{Name: "ids.payload", Kind: element.WholePacket, Offset: packet.EthHdrLen, H2D: true},
		{Name: "ids.verdict", Kind: element.UserData, UserBytes: 4, D2H: true},
	}
}

// ProcessOffloaded implements the device-side function (see MatchAC).
//
//nba:hotpath
func (e *MatchRE) ProcessOffloaded(ctx *element.ProcContext, b *batch.Batch) {
	var ids [batch.MaxBatchSize]int32
	e.dfa.matchBatch(b, &ids)
	b.ForEachLive(func(i int, pkt *packet.Packet) {
		if e.handle(pkt, int(ids[i])) == element.Drop {
			b.SetResult(i, batch.ResultDrop)
		}
	})
}
