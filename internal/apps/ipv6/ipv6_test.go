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

// hostBits returns the mask of the address bits below plen.
func hostBits(plen int) packet.IPv6Addr {
	ones := packet.IPv6Addr{Hi: ^uint64(0), Lo: ^uint64(0)}
	m := ones.Mask(plen)
	return packet.IPv6Addr{Hi: ^m.Hi, Lo: ^m.Lo}
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
		// Randomise every bit below the prefix length, in both words.
		host := hostBits(rt.PLen)
		probe := rt.Prefix
		probe.Hi |= r.Uint64() & host.Hi
		probe.Lo |= r.Uint64() & host.Lo
		if probe.Mask(rt.PLen) != rt.Prefix {
			t.Fatalf("probe %v left its prefix %v/%d", probe, rt.Prefix, rt.PLen)
		}
		if got, want := table.Lookup(probe), table.NaiveLookup(probe); got != want {
			t.Fatalf("Lookup(%v) = %d, want %d (route %+v)", probe, got, want, rt)
		}
	}
}

// fibDsts draws n destinations the way the standard traffic does
// (bench.ipv6Dsts feeding gen.UDP6): a /16../64 prefix of the production FIB
// with its low 32 bits randomised.
func fibDsts(routes []Route, n int, seed uint64) []packet.IPv6Addr {
	var prefixes []packet.IPv6Addr
	for i, rt := range routes {
		if rt.PLen >= 16 && rt.PLen <= 64 && i%4 == 0 {
			prefixes = append(prefixes, rt.Prefix)
		}
	}
	r := rng.New(seed)
	dsts := make([]packet.IPv6Addr, n)
	for i := range dsts {
		dsts[i] = prefixes[r.Intn(len(prefixes))]
		dsts[i].Lo |= r.Uint64() & 0xFFFFFFFF
	}
	return dsts
}

// TestLookupMatchesNaiveOnProductionFIB checks the lookup against the
// linear oracle on the FIB every LookupIP6Route builds by default (65 536
// routes, seed 42), at the destinations its traffic carries.
func TestLookupMatchesNaiveOnProductionFIB(t *testing.T) {
	routes := RandomRoutes(65536, 256, 42)
	table, err := NewTable(routes)
	if err != nil {
		t.Fatal(err)
	}
	n := 1024
	if testing.Short() {
		n = 128
	}
	for _, dst := range fibDsts(routes, n, 9) {
		if got, want := table.Lookup(dst), table.NaiveLookup(dst); got != want {
			t.Fatalf("Lookup(%v) = %d, oracle %d", dst, got, want)
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

// BenchmarkLookup times one lookup on the production FIB at uniform
// addresses (what the apps.ipv6.lookup_ns layer row draws: most miss at the
// first levels) and at FIB-drawn ones (what the ipv6 traffic carries).
func BenchmarkLookup(b *testing.B) {
	routes := RandomRoutes(65536, 256, 42)
	table, err := NewTable(routes)
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(2)
	uniform := make([]packet.IPv6Addr, 1024)
	for i := range uniform {
		uniform[i] = addr(r.Uint64(), r.Uint64())
	}
	for _, c := range []struct {
		name  string
		addrs []packet.IPv6Addr
	}{{"uniform", uniform}, {"fib", fibDsts(routes, 1024, 3)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink uint16
			for i := 0; i < b.N; i++ {
				sink += table.Lookup(c.addrs[i&1023])
			}
			_ = sink
		})
	}
}
