package ipv4

import (
	"fmt"
	"strconv"
	"strings"

	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/packet"
)

func init() {
	element.Register("IPLookup", func() element.Element { return &IPLookup{} })
}

// IPLookup is the offloadable DIR-24-8 route lookup element (paper Figure
// 8a). It writes the output NIC port derived from the next hop into the
// packet's AnnoOutPort annotation; unroutable packets are dropped.
//
// Parameters: "entries=N" (synthetic FIB size, default 65536),
// "seed=S" (FIB seed, default 42).
type IPLookup struct {
	table    *Table
	numPorts int
}

// Class implements element.Element.
func (*IPLookup) Class() string { return "IPLookup" }

// OutPorts implements element.Element.
func (*IPLookup) OutPorts() int { return 1 }

// Configure implements element.Element. The FIB is built once per socket
// and shared across worker replicas through node-local storage (paper §3.2).
func (e *IPLookup) Configure(ctx *element.ConfigContext, args []string) error {
	entries := 65536
	seed := uint64(42)
	for _, a := range args {
		switch {
		case strings.HasPrefix(a, "entries="):
			v, err := strconv.Atoi(strings.TrimPrefix(a, "entries="))
			if err != nil || v < 0 {
				return fmt.Errorf("IPLookup: bad entries %q", a)
			}
			entries = v
		case strings.HasPrefix(a, "seed="):
			v, err := strconv.ParseUint(strings.TrimPrefix(a, "seed="), 10, 64)
			if err != nil {
				return fmt.Errorf("IPLookup: bad seed %q", a)
			}
			seed = v
		default:
			return fmt.Errorf("IPLookup: unknown parameter %q", a)
		}
	}
	key := fmt.Sprintf("ipv4.fib.%d.%d", entries, seed)
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

// Datablocks implements element.Offloadable: only the 4-byte destination
// address goes to the device and a 4-byte result comes back — the showcase
// for partial-packet datablocks (paper Table 2).
func (e *IPLookup) Datablocks() []element.Datablock {
	return []element.Datablock{
		{Name: "ipv4.dst", Kind: element.PartialPacket,
			Offset: packet.EthHdrLen + 16, Length: 4, H2D: true},
		{Name: "ipv4.nexthop", Kind: element.UserData, UserBytes: 4, D2H: true},
	}
}

// Kernel implements element.Offloadable: one lookup per live packet.
//
//nba:hotpath
func (e *IPLookup) Kernel(ctx *element.ProcContext, b *batch.Batch) {
	b.ForEachLive(func(i int, pkt *packet.Packet) {
		nh := e.table.Lookup(packet.IPv4Dst(pkt.Data()[packet.EthHdrLen:]))
		if nh == MissNextHop {
			b.SetResult(i, batch.ResultDrop)
			return
		}
		pkt.Anno[packet.AnnoOutPort] = uint64(int(nh) % e.numPorts)
	})
}
