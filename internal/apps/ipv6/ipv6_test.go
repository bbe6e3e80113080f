package ipv6

import (
	"testing"
	"testing/quick"

	"nba/internal/apps/apptest"
	"nba/internal/element"
	"nba/internal/packet"
	"nba/internal/rng"
)

func addr(hi, lo uint64) packet.IPv6Addr { return packet.IPv6Addr{Hi: hi, Lo: lo} }

func TestBasicLookup(t *testing.T) {
	table, err := NewTable([]Route{
		{Prefix: addr(0x2001_0DB8_0000_0000, 0), PLen: 32, NextHop: 1},
		{Prefix: addr(0x2001_0DB8_0001_0000, 0), PLen: 48, NextHop: 2},
		{Prefix: addr(0x2001_0DB8_0001_0000, 0x8000_0000_0000_0000), PLen: 65, NextHop: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a    packet.IPv6Addr
		want uint16
	}{
		{addr(0x2001_0DB8_FFFF_0000, 1), 1},
		{addr(0x2001_0DB8_0001_FFFF, 1), 2},
		{addr(0x2001_0DB8_0001_0000, 0x8000_0000_0000_0001), 3},
		{addr(0x2001_0DB8_0001_0000, 0x7000_0000_0000_0001), 2},
		{addr(0x3001_0000_0000_0000, 0), MissNextHop},
	}
	for _, c := range cases {
		if got := table.Lookup(c.a); got != c.want {
			t.Errorf("Lookup(%v) = %d, want %d", c.a, got, c.want)
		}
	}
}

func TestDefaultRoute(t *testing.T) {
	table, err := NewTable([]Route{
		{PLen: 0, NextHop: 7},
		{Prefix: addr(0x2001_0000_0000_0000, 0), PLen: 16, NextHop: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := table.Lookup(addr(0x3001, 5)); got != 7 {
		t.Errorf("default: got %d, want 7", got)
	}
	if got := table.Lookup(addr(0x2001_0000_0000_0001, 5)); got != 1 {
		t.Errorf("specific: got %d, want 1", got)
	}
}

func TestPlenValidation(t *testing.T) {
	if _, err := NewTable([]Route{{PLen: 129}}); err == nil {
		t.Error("plen 129 accepted")
	}
	if _, err := NewTable([]Route{{PLen: -1}}); err == nil {
		t.Error("negative plen accepted")
	}
}

func TestProbeBound(t *testing.T) {
	// With levels spanning the full range, probes must stay within
	// ceil(log2(nlevels)) + 1 — the paper's "at most seven" bound.
	table, err := NewTable(RandomRoutes(5000, 64, 3))
	if err != nil {
		t.Fatal(err)
	}
	maxProbes := 0
	r := rng.New(4)
	for i := 0; i < 5000; i++ {
		_, probes := table.LookupCounted(addr(r.Uint64(), r.Uint64()))
		if probes > maxProbes {
			maxProbes = probes
		}
	}
	if maxProbes > 8 {
		t.Errorf("max probes = %d, want <= 8 (binary search over %d levels)", maxProbes, table.Levels())
	}
}

func TestLookupMatchesNaiveProperty(t *testing.T) {
	table, err := NewTable(RandomRoutes(3000, 64, 5))
	if err != nil {
		t.Fatal(err)
	}
	f := func(hi, lo uint64) bool {
		a := addr(hi, lo)
		return table.Lookup(a) == table.NaiveLookup(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestLookupMatchesNaiveOnRouteTargets(t *testing.T) {
	// Addresses inside actual prefixes stress marker correctness far more
	// than uniform random ones.
	routes := RandomRoutes(1500, 64, 6)
	table, err := NewTable(routes)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(8)
	for _, rt := range routes {
		probe := rt.Prefix
		// Set some bits below the prefix length.
		probe.Lo |= r.Uint64() &^ 0 >> uint(rt.PLen%64)
		if got, want := table.Lookup(probe), table.NaiveLookup(probe); got != want {
			t.Fatalf("Lookup(%v) = %d, want %d (route %+v)", probe, got, want, rt)
		}
	}
}

func TestElementProcess(t *testing.T) {
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 8, Rand: rng.New(1)}
	e := &LookupIP6Route{}
	if err := e.Configure(cc, []string{"entries=2000", "seed=2"}); err != nil {
		t.Fatal(err)
	}
	pc := &element.ProcContext{NodeLocal: nl, Rand: rng.New(2), CostScale: 1}
	p := &packet.Packet{}
	n := packet.BuildUDP6(p.Buf(), [6]byte{2}, [6]byte{4},
		addr(1, 2), addr(0x2001_0DB8, 99), 1, 2, 80)
	p.SetLength(n)
	if r := apptest.RunOne(e, pc, p); r != 0 {
		t.Fatalf("result = %d (default route should match)", r)
	}
	if p.Anno[packet.AnnoOutPort] >= 8 {
		t.Errorf("out port %d out of range", p.Anno[packet.AnnoOutPort])
	}
}

func TestElementConfigErrors(t *testing.T) {
	nl := element.NewNodeLocal()
	cc := &element.ConfigContext{NodeLocal: nl, NumPorts: 8, Rand: rng.New(1)}
	for _, args := range [][]string{{"entries=x"}, {"seed=-"}, {"wat=1"}} {
		if err := (&LookupIP6Route{}).Configure(cc, args); err == nil {
			t.Errorf("config %v accepted", args)
		}
	}
}

func TestDatablocks(t *testing.T) {
	dbs := (&LookupIP6Route{}).Datablocks()
	if len(dbs) != 2 || dbs[0].BytesFor(1500) != 16 || dbs[1].BytesFor(64) != 4 {
		t.Errorf("datablocks wrong: %+v", dbs)
	}
}

func BenchmarkLookup(b *testing.B) {
	table, err := NewTable(RandomRoutes(100000, 256, 1))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	addrs := make([]packet.IPv6Addr, 1024)
	for i := range addrs {
		addrs[i] = addr(r.Uint64(), r.Uint64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.Lookup(addrs[i%1024])
	}
}
