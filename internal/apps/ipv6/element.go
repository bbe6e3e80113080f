package ipv6

import (
	"fmt"
	"strconv"
	"strings"

	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/packet"
)

func init() {
	element.Register("LookupIP6Route", func() element.Element { return &LookupIP6Route{} })
}

// LookupIP6Route is the offloadable Waldvogel lookup element (paper Figure
// 8b). Parameters: "entries=N" (default 65536), "seed=S" (default 42).
type LookupIP6Route struct {
	table    *Table
	numPorts int
}

// Class implements element.Element.
func (*LookupIP6Route) Class() string { return "LookupIP6Route" }

// OutPorts implements element.Element.
func (*LookupIP6Route) OutPorts() int { return 1 }

// Configure implements element.Element.
func (e *LookupIP6Route) Configure(ctx *element.ConfigContext, args []string) error {
	entries := 65536
	seed := uint64(42)
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "entries="):
			v, err := strconv.Atoi(strings.TrimPrefix(a, "entries="))
			if err != nil || v < 0 {
				return fmt.Errorf("LookupIP6Route: bad entries %q", a)
			}
			entries = v
		case strings.HasPrefix(a, "seed="):
			v, err := strconv.ParseUint(strings.TrimPrefix(a, "seed="), 10, 64)
			if err != nil {
				return fmt.Errorf("LookupIP6Route: bad seed %q", a)
			}
			seed = v
		default:
			return fmt.Errorf("LookupIP6Route: unknown parameter %q", a)
		}
	}
	key := fmt.Sprintf("ipv6.fib.%d.%d", entries, seed)
	var err error
	e.table, err = element.GetOrCreateShared(ctx.NodeLocal, key, func() (*Table, error) {
		return NewTable(RandomRoutes(entries, 256, seed))
	})
	if err != nil {
		return err
	}
	e.numPorts = ctx.NumPorts
	return nil
}

// Datablocks implements element.Offloadable: 16-byte destination in, 4-byte
// next hop out.
func (e *LookupIP6Route) Datablocks() []element.Datablock {
	return []element.Datablock{
		{Name: "ipv6.dst", Kind: element.PartialPacket,
			Offset: packet.EthHdrLen + 24, Length: 16, H2D: true},
		{Name: "ipv6.nexthop", Kind: element.UserData, UserBytes: 4, D2H: true},
	}
}

// Kernel implements element.Offloadable: one lookup per live packet.
//
//nba:hotpath
func (e *LookupIP6Route) Kernel(ctx *element.ProcContext, b *batch.Batch) {
	b.ForEachLive(func(i int, pkt *packet.Packet) {
		dst := packet.IPv6DstAddr(pkt.Data()[packet.EthHdrLen:])
		nh := e.table.Lookup(dst)
		if nh == MissNextHop {
			b.SetResult(i, batch.ResultDrop)
			return
		}
		pkt.Anno[packet.AnnoOutPort] = uint64(int(nh) % e.numPorts)
	})
}
