package ids

import (
	"fmt"

	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/packet"
)

func init() {
	element.Register("IDSMatchAC", func() element.Element {
		return &Match{class: "IDSMatchAC", key: "ids.ac.default", compile: defaultAC}
	})
	// Regex rule IDs occupy the annotation above the AC signature space.
	element.Register("IDSMatchRE", func() element.Element {
		return &Match{class: "IDSMatchRE", key: "ids.re.default", compile: defaultDFA, idBase: uint64(len(DefaultSignatures))}
	})
	element.Register("IDSRuleMatch", func() element.Element { return &IDSRuleMatch{} })
}

func defaultAC() (*scanTable, error) {
	a, err := BuildAC(DefaultSignatures)
	if err != nil {
		return nil, err
	}
	return &a.scanTable, nil
}

func defaultDFA() (*scanTable, error) {
	d, err := CompileRules(DefaultRegexRules)
	if err != nil {
		return nil, err
	}
	return &d.scanTable, nil
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

// Match is the offloadable signature-matching element. IDSMatchAC
// (Aho-Corasick over DefaultSignatures) and IDSMatchRE (the regex DFA over
// DefaultRegexRules) are this one element over a different scan table and ID
// offset. Parameter: "alert" (default) or "drop".
type Match struct {
	class string
	// key names the table in node-local storage; compile builds it. The
	// automata are pure functions of the built-in rule sets, so one build
	// serves every System in the process.
	key     string
	compile func() (*scanTable, error)
	// idBase lifts the table's output IDs into the class's share of the
	// AnnoMatchResult space.
	idBase uint64
	table  *scanTable
	mode   matchMode
}

// Class implements element.Element.
func (e *Match) Class() string { return e.class }

// OutPorts implements element.Element.
func (*Match) OutPorts() int { return 1 }

// Configure implements element.Element.
func (e *Match) Configure(ctx *element.ConfigContext, args []string) error {
	mode, err := parseMode(args)
	if err != nil {
		return fmt.Errorf("%s: %w", e.class, err)
	}
	e.mode = mode
	e.table, err = element.GetOrCreateShared(ctx.NodeLocal, e.key, e.compile)
	return err
}

// Datablocks implements element.Offloadable: payload in, 4-byte verdict out.
// Both classes name the same payload block, so a chained offload uploads the
// payload once.
func (*Match) Datablocks() []element.Datablock {
	return []element.Datablock{
		{Name: "ids.payload", Kind: element.WholePacket, Offset: packet.EthHdrLen, H2D: true},
		{Name: "ids.verdict", Kind: element.UserData, UserBytes: 4, D2H: true},
	}
}

// Kernel implements element.Offloadable: one batch scan over all live
// packets, then the per-packet verdicts in slot order.
//
//nba:hotpath
func (e *Match) Kernel(ctx *element.ProcContext, b *batch.Batch) {
	var ids [batch.MaxBatchSize]int32
	e.table.matchBatch(b, &ids)
	b.ForEachLive(func(i int, pkt *packet.Packet) {
		if ids[i] < 0 {
			return
		}
		pkt.Anno[packet.AnnoMatchResult] = uint64(ids[i]) + 1 + e.idBase
		if e.mode == modeDrop {
			b.SetResult(i, batch.ResultDrop)
		}
	})
}
