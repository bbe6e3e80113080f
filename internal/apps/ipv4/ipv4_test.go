package ipv4

import (
	"testing"
	"testing/quick"

	"nba/internal/apps/apptest"
	"nba/internal/batch"
	"nba/internal/element"
	"nba/internal/packet"
	"nba/internal/rng"
)

func TestBasicLookup(t *testing.T) {
	table, err := NewTable([]Route{
		{Prefix: 0x0A000000, PLen: 8, NextHop: 1},  // 10/8
		{Prefix: 0x0A010000, PLen: 16, NextHop: 2}, // 10.1/16
		{Prefix: 0x0A010100, PLen: 24, NextHop: 3}, // 10.1.1/24
		{Prefix: 0x0A010180, PLen: 25, NextHop: 4}, // 10.1.1.128/25
		{Prefix: 0x0A0101FF, PLen: 32, NextHop: 5}, // 10.1.1.255/32
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		addr uint32
		want uint16
	}{
		{0x0A000001, 1},
		{0x0A010001, 2},
		{0x0A010101, 3},
		{0x0A010181, 4},
		{0x0A0101FF, 5},
		{0x0B000000, MissNextHop},
	}
	for _, c := range cases {
		if got := table.Lookup(c.addr); got != c.want {
			t.Errorf("Lookup(%#08x) = %d, want %d", c.addr, got, c.want)
		}
	}
}

func TestDefaultRoute(t *testing.T) {
	table, err := NewTable([]Route{
		{Prefix: 0, PLen: 0, NextHop: 9},
		{Prefix: 0xC0A80000, PLen: 16, NextHop: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Lookup(0x01020304); got != 9 {
		t.Errorf("default route: got %d, want 9", got)
	}
	if got := table.Lookup(0xC0A80001); got != 1 {
		t.Errorf("specific route: got %d, want 1", got)
	}
}

func TestLongPrefixSpillsToTblLong(t *testing.T) {
	table, err := NewTable([]Route{
		{Prefix: 0x0A010100, PLen: 24, NextHop: 1},
		{Prefix: 0x0A010140, PLen: 26, NextHop: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, blocks := table.Size(); blocks != 1 {
		t.Errorf("TBLlong blocks = %d, want 1", blocks)
	}
	if got := table.Lookup(0x0A010141); got != 2 {
		t.Errorf("long prefix: got %d, want 2", got)
	}
	if got := table.Lookup(0x0A010101); got != 1 {
		t.Errorf("covering /24 inside extended block: got %d, want 1", got)
	}
}

func TestInsertValidation(t *testing.T) {
	if _, err := NewTable([]Route{{PLen: 33}}); err == nil {
		t.Error("plen 33 accepted")
	}
	if _, err := NewTable([]Route{{NextHop: 0x8000}}); err == nil {
		t.Error("oversized next hop accepted")
	}
}

func TestLookupMatchesNaiveProperty(t *testing.T) {
	table, err := NewTable(RandomRoutes(2000, 64, 7))
	if err != nil {
		t.Fatal(err)
	}
	f := func(addr uint32) bool {
		return table.Lookup(addr) == table.NaiveLookup(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestLookupMatchesNaiveNearPrefixEdges(t *testing.T) {
	// Random addresses rarely land at prefix boundaries; probe them
	// explicitly.
	routes := RandomRoutes(500, 64, 11)
	table, err := NewTable(routes)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		var mask uint32
		if r.PLen > 0 {
			mask = ^uint32(0) << (32 - r.PLen)
		}
		base := r.Prefix & mask
		for _, addr := range []uint32{base, base | ^mask, base + 1, base ^ 0x80000000} {
			if got, want := table.Lookup(addr), table.NaiveLookup(addr); got != want {
				t.Fatalf("edge Lookup(%#08x) = %d, want %d (route %+v)", addr, got, want, r)
			}
		}
	}
}

func newElem(t *testing.T, args ...string) (*IPLookup, *element.ProcContext) {
	t.Helper()
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 8, Rand: rng.New(1)}
	e := &IPLookup{}
	if err := e.Configure(cc, args); err != nil {
		t.Fatal(err)
	}
	return e, &element.ProcContext{NodeLocal: nl, Rand: rng.New(2), CostScale: 1}
}

func mkPkt(dst uint32) *packet.Packet {
	p := &packet.Packet{}
	n := packet.BuildUDP4(p.Buf(), [6]byte{2}, [6]byte{4}, 0x0A000001, dst, 1, 2, 64)
	p.SetLength(n)
	return p
}

func TestElementSetsOutPort(t *testing.T) {
	e, pc := newElem(t, "entries=1000", "seed=3")
	p := mkPkt(0x08080808)
	r := apptest.RunOne(e, pc, p)
	// With a default route, every address is routable.
	if r != 0 {
		t.Fatalf("result = %d, want 0", r)
	}
	if p.Anno[packet.AnnoOutPort] >= 8 {
		t.Errorf("out port %d out of range", p.Anno[packet.AnnoOutPort])
	}
}

func TestElementSharedTableAcrossReplicas(t *testing.T) {
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 8, Rand: rng.New(1)}
	a, b := &IPLookup{}, &IPLookup{}
	if err := a.Configure(cc, []string{"entries=100", "seed=5"}); err != nil {
		t.Fatal(err)
	}
	if err := b.Configure(cc, []string{"entries=100", "seed=5"}); err != nil {
		t.Fatal(err)
	}
	if a.table != b.table {
		t.Error("replicas did not share the FIB via node-local storage")
	}
}

func TestElementConfigErrors(t *testing.T) {
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 8, Rand: rng.New(1)}
	for _, args := range [][]string{{"entries=x"}, {"seed=x"}, {"bogus=1"}} {
		if err := (&IPLookup{}).Configure(cc, args); err == nil {
			t.Errorf("config %v accepted", args)
		}
	}
}

// TestCPUAndGPUPathsAgree: the CPU and the device run the one kernel, so the
// check that is left is that it is right in every slot of a full batch, against
// the linear longest-prefix match that shares no code with DIR-24-8.
func TestCPUAndGPUPathsAgree(t *testing.T) {
	e, pc := newElem(t, "entries=5000", "seed=9")
	var b batch.Batch
	r := rng.New(77)
	for i := 0; i < 64; i++ {
		b.Add(mkPkt(r.Uint32()))
	}
	e.Kernel(pc, &b)
	routed := 0
	b.ForEachLive(func(i int, p *packet.Packet) {
		nh := e.table.NaiveLookup(packet.IPv4Dst(p.Data()[packet.EthHdrLen:]))
		if nh == MissNextHop {
			if b.Result(i) != batch.ResultDrop {
				t.Fatalf("pkt %d: no route, not dropped", i)
			}
			return
		}
		routed++
		if want := uint64(int(nh) % 8); b.Result(i) != 0 || p.Anno[packet.AnnoOutPort] != want {
			t.Fatalf("pkt %d: result %d port %d, want 0 and %d", i, b.Result(i), p.Anno[packet.AnnoOutPort], want)
		}
	})
	if routed == 0 {
		t.Error("no packets routed")
	}
}

func TestDatablocksDeclaration(t *testing.T) {
	e := &IPLookup{}
	dbs := e.Datablocks()
	if len(dbs) != 2 {
		t.Fatalf("%d datablocks, want 2", len(dbs))
	}
	// H2D is tiny: 4 bytes per packet regardless of frame size.
	if got := dbs[0].BytesFor(1500); got != 4 {
		t.Errorf("dst datablock bytes = %d, want 4", got)
	}
	if !dbs[0].H2D || dbs[0].D2H {
		t.Error("dst datablock directions wrong")
	}
	if !dbs[1].D2H || dbs[1].BytesFor(64) != 4 {
		t.Error("result datablock wrong")
	}
}

func BenchmarkLookup(b *testing.B) {
	table, err := NewTable(RandomRoutes(100000, 256, 1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	addrs := make([]uint32, 1024)
	for i := range addrs {
		addrs[i] = r.Uint32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Lookup(addrs[i%1024])
	}
}
