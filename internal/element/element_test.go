package element

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"nba/internal/packet"
	"nba/internal/rng"
)

func newCtx() (*ConfigContext, *ProcContext) {
	nl := NewNodeLocal()
	r := rng.New(1)
	cc := &ConfigContext{Socket: 0, Worker: 0, NodeLocal: nl, NumPorts: 4, Rand: r}
	pc := &ProcContext{Worker: 0, Socket: 0, NodeLocal: nl, Rand: r}
	return cc, pc
}

func mkIPv4Packet(t *testing.T, frameLen int) *packet.Packet {
	t.Helper()
	p := &packet.Packet{}
	n := packet.BuildUDP4(p.Buf(), [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2},
		0x0A000001, 0xC0A80101, 1234, 53, frameLen)
	p.SetLength(n)
	return p
}

func mkIPv6Packet(t *testing.T, frameLen int) *packet.Packet {
	t.Helper()
	p := &packet.Packet{}
	n := packet.BuildUDP6(p.Buf(), [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2},
		packet.IPv6Addr{Hi: 1}, packet.IPv6Addr{Lo: 2}, 1234, 53, frameLen)
	p.SetLength(n)
	return p
}

func configure(t *testing.T, e Element, args ...string) {
	t.Helper()
	cc, _ := newCtx()
	if err := e.Configure(cc, args); err != nil {
		t.Fatalf("Configure(%s): %v", e.Class(), err)
	}
}

func TestRegistryKnowsStandardElements(t *testing.T) {
	for _, class := range []string{
		"FromInput", "ToOutput", "Discard", "NoOp", "L2Forward", "EchoBack",
		"CheckIPHeader", "CheckIP6Header", "DecIPTTL", "DecIP6HLIM",
		"Classifier", "RandomWeightedBranch",
	} {
		e, err := NewByClass(class)
		if err != nil {
			t.Errorf("NewByClass(%q): %v", class, err)
			continue
		}
		if e.Class() != class {
			t.Errorf("Class() = %q, want %q", e.Class(), class)
		}
	}
	if _, err := NewByClass("Bogus"); err == nil {
		t.Error("NewByClass accepted unknown class")
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register("NoOp", func() Element { return &NoOp{} })
}

func TestSourceAndSinkMarkers(t *testing.T) {
	var fi Element = &FromInput{}
	if _, ok := fi.(Source); !ok {
		t.Error("FromInput is not a Source")
	}
	var to Element = &ToOutput{}
	if s, ok := to.(Sink); !ok || s.SinkKind() != SinkTransmit {
		t.Error("ToOutput is not a transmit sink")
	}
	var d Element = &Discard{}
	if s, ok := d.(Sink); !ok || s.SinkKind() != SinkDiscard {
		t.Error("Discard is not a discard sink")
	}
}

func TestL2ForwardRoundRobin(t *testing.T) {
	e := &L2Forward{}
	configure(t, e)
	_, pc := newCtx()
	seen := map[uint64]int{}
	for i := 0; i < 8; i++ {
		p := mkIPv4Packet(t, 64)
		if r := e.Process(pc, p); r != 0 {
			t.Fatalf("Process = %d, want 0", r)
		}
		seen[p.Anno[packet.AnnoOutPort]]++
	}
	for port := uint64(0); port < 4; port++ {
		if seen[port] != 2 {
			t.Errorf("port %d got %d packets, want 2 (round robin over 4 ports)", port, seen[port])
		}
	}
}

func TestEchoBackUsesInPort(t *testing.T) {
	e := &EchoBack{}
	configure(t, e)
	_, pc := newCtx()
	p := mkIPv4Packet(t, 64)
	p.InPort = 3
	src := append([]byte(nil), packet.EthSrc(p.Data())...)
	e.Process(pc, p)
	if p.Anno[packet.AnnoOutPort] != 3 {
		t.Errorf("out port = %d, want 3", p.Anno[packet.AnnoOutPort])
	}
	if string(packet.EthDst(p.Data())) != string(src) {
		t.Error("MACs not swapped")
	}
}

func TestCheckIPHeaderAcceptsAndRejects(t *testing.T) {
	e := &CheckIPHeader{}
	configure(t, e)
	_, pc := newCtx()

	good := mkIPv4Packet(t, 64)
	if r := e.Process(pc, good); r != 0 {
		t.Errorf("valid packet: result = %d, want 0", r)
	}

	bad := mkIPv4Packet(t, 64)
	bad.Data()[packet.EthHdrLen+16] ^= 0xff // corrupt without checksum fix
	if r := e.Process(pc, bad); r != Drop {
		t.Errorf("corrupt packet: result = %d, want Drop", r)
	}

	v6 := mkIPv6Packet(t, 64)
	if r := e.Process(pc, v6); r != Drop {
		t.Errorf("IPv6 packet at CheckIPHeader: result = %d, want Drop", r)
	}

	short := &packet.Packet{}
	short.SetLength(10)
	if r := e.Process(pc, short); r != Drop {
		t.Errorf("truncated packet: result = %d, want Drop", r)
	}
}

func TestCheckIP6Header(t *testing.T) {
	e := &CheckIP6Header{}
	configure(t, e)
	_, pc := newCtx()
	if r := e.Process(pc, mkIPv6Packet(t, 80)); r != 0 {
		t.Errorf("valid IPv6: result = %d, want 0", r)
	}
	if r := e.Process(pc, mkIPv4Packet(t, 64)); r != Drop {
		t.Errorf("IPv4 at CheckIP6Header: result = %d, want Drop", r)
	}
}

func TestDecIPTTL(t *testing.T) {
	e := &DecIPTTL{}
	configure(t, e)
	_, pc := newCtx()
	p := mkIPv4Packet(t, 64)
	if r := e.Process(pc, p); r != 0 {
		t.Fatalf("result = %d, want 0", r)
	}
	ip := p.Data()[packet.EthHdrLen:]
	if packet.IPv4TTL(ip) != 63 {
		t.Errorf("TTL = %d, want 63", packet.IPv4TTL(ip))
	}
	if packet.CheckIPv4(ip) != nil {
		t.Error("checksum invalid after TTL decrement")
	}
	// Expiry path.
	ip[8] = 1
	packet.SetIPv4Checksum(ip)
	if r := e.Process(pc, p); r != Drop {
		t.Errorf("TTL=1: result = %d, want Drop", r)
	}
}

func TestDecIP6HLIM(t *testing.T) {
	e := &DecIP6HLIM{}
	configure(t, e)
	_, pc := newCtx()
	p := mkIPv6Packet(t, 80)
	if r := e.Process(pc, p); r != 0 {
		t.Fatalf("result = %d, want 0", r)
	}
	if hl := packet.IPv6HopLimit(p.Data()[packet.EthHdrLen:]); hl != 63 {
		t.Errorf("hop limit = %d, want 63", hl)
	}
}

func TestClassifier(t *testing.T) {
	e := &Classifier{}
	configure(t, e, "ip", "ip6", "-")
	if e.OutPorts() != 3 {
		t.Fatalf("OutPorts = %d, want 3", e.OutPorts())
	}
	_, pc := newCtx()
	if r := e.Process(pc, mkIPv4Packet(t, 64)); r != 0 {
		t.Errorf("IPv4 -> %d, want 0", r)
	}
	if r := e.Process(pc, mkIPv6Packet(t, 64)); r != 1 {
		t.Errorf("IPv6 -> %d, want 1", r)
	}
	arp := mkIPv4Packet(t, 64)
	packet.SetEthType(arp.Data(), 0x0806)
	if r := e.Process(pc, arp); r != 2 {
		t.Errorf("ARP -> %d, want 2 (match-all)", r)
	}
}

func TestClassifierConfigErrors(t *testing.T) {
	cc, _ := newCtx()
	e := &Classifier{}
	if err := e.Configure(cc, nil); err == nil {
		t.Error("empty Classifier config accepted")
	}
	if err := e.Configure(cc, []string{"bogus"}); err == nil {
		t.Error("bad pattern accepted")
	}
}

func TestRandomWeightedBranchDistribution(t *testing.T) {
	e := &RandomWeightedBranch{}
	configure(t, e, "0.2")
	_, pc := newCtx()
	p := mkIPv4Packet(t, 64)
	minority := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if e.Process(pc, p) == 1 {
			minority++
		}
	}
	frac := float64(minority) / n
	if frac < 0.19 || frac > 0.21 {
		t.Errorf("minority fraction = %v, want ~0.2", frac)
	}
}

func TestRandomWeightedBranchConfigErrors(t *testing.T) {
	cc, _ := newCtx()
	e := &RandomWeightedBranch{}
	for _, args := range [][]string{nil, {"1.5"}, {"NaN"}, {"x"}, {"0.1", "0.2"}} {
		if err := e.Configure(cc, args); err == nil {
			t.Errorf("bad config %v accepted", args)
		}
	}
}

func TestNodeLocalSharing(t *testing.T) {
	nl := NewNodeLocal()
	builds := 0
	get := func() []int {
		v, err := GetOrCreate(nl, "table", func() ([]int, error) {
			builds++
			return []int{1, 2, 3}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a := get()
	b := get()
	if builds != 1 {
		t.Errorf("build called %d times, want 1", builds)
	}
	if &a[0] != &b[0] {
		t.Error("GetOrCreate returned different instances")
	}
	nl.Set("x", 42)
	if nl.Get("x") != 42 {
		t.Error("Set/Get mismatch")
	}
	if nl.Get("missing") != nil {
		t.Error("missing key not nil")
	}
	// A failed build is reported and stores nothing, so a later build runs.
	fail := errors.New("no table")
	if _, err := GetOrCreate(nl, "late", func() (*int, error) { return nil, fail }); err != fail {
		t.Errorf("failed build returned %v, want %v", err, fail)
	}
	if nl.Get("late") != nil {
		t.Error("failed build was stored")
	}
	if v, err := GetOrCreate(nl, "late", func() (*int, error) { return new(int), nil }); err != nil || v == nil {
		t.Errorf("build after a failed one: %v, %v", v, err)
	}
}

// TestGetOrCreateShared: one build per process however many node-local
// stores (sockets, Systems) ask and from however many goroutines
// (internal/par builds Systems concurrently); a failed build is not kept.
func TestGetOrCreateShared(t *testing.T) {
	var builds atomic.Int32
	got := make([]*int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := GetOrCreateShared(NewNodeLocal(), "test.shared", func() (*int, error) {
				builds.Add(1)
				return new(int), nil
			})
			if err != nil {
				t.Error(err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Errorf("built %d times, want 1", builds.Load())
	}
	for _, v := range got {
		if v == nil || v != got[0] {
			t.Fatal("stores did not share one value")
		}
	}
	fail := errors.New("no table")
	nl := NewNodeLocal()
	if _, err := GetOrCreateShared(nl, "test.shared.fail", func() (*int, error) { return nil, fail }); err != fail {
		t.Errorf("failed build returned %v, want %v", err, fail)
	}
	if v, err := GetOrCreateShared(nl, "test.shared.fail", func() (*int, error) { return new(int), nil }); err != nil || v == nil {
		t.Errorf("build after a failed one: %v, %v", v, err)
	}
}

func TestDatablockBytes(t *testing.T) {
	cases := []struct {
		d    Datablock
		flen int
		want int
	}{
		{Datablock{Kind: PartialPacket, Offset: 30, Length: 4}, 64, 4},
		{Datablock{Kind: PartialPacket, Offset: 60, Length: 10}, 64, 4},  // clipped
		{Datablock{Kind: PartialPacket, Offset: 100, Length: 10}, 64, 0}, // past end
		{Datablock{Kind: WholePacket, Offset: 14}, 64, 50},
		{Datablock{Kind: WholePacket, Offset: 14, SizeDelta: 28}, 64, 78},
		{Datablock{Kind: UserData, UserBytes: 8}, 1500, 8},
	}
	for i, c := range cases {
		if got := c.d.BytesFor(c.flen); got != c.want {
			t.Errorf("case %d: BytesFor(%d) = %d, want %d", i, c.flen, got, c.want)
		}
	}
}

func TestDatablockKindString(t *testing.T) {
	if PartialPacket.String() != "partial_pkt" || WholePacket.String() != "whole_pkt" || UserData.String() != "user" {
		t.Error("DatablockKind strings wrong")
	}
}

func TestClassicAdapter(t *testing.T) {
	calls := 0
	e := NewClassicAdapter("MyClick", 2, func(ctx *ProcContext, pkt *packet.Packet) int {
		calls++
		return 1
	})
	if e.Class() != "MyClick" || e.OutPorts() != 2 {
		t.Error("adapter metadata wrong")
	}
	_, pc := newCtx()
	if r := e.Process(pc, mkIPv4Packet(t, 64)); r != 1 || calls != 1 {
		t.Error("adapter did not delegate")
	}
}
