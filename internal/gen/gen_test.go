package gen

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"nba/internal/packet"
)

func TestUDP4Deterministic(t *testing.T) {
	g := &UDP4{FrameLen: 64, Flows: 100, Seed: 1}
	var a, b packet.Packet
	g.Fill(&a, 3, 42)
	g.Fill(&b, 3, 42)
	if !bytes.Equal(a.Data(), b.Data()) {
		t.Error("same (port,seq) produced different frames")
	}
	g.Fill(&b, 3, 43)
	if bytes.Equal(a.Data(), b.Data()) {
		t.Error("different seq produced identical frames")
	}
}

func TestUDP4ValidFrames(t *testing.T) {
	g := &UDP4{FrameLen: 128, Flows: 50, Seed: 2}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	var p packet.Packet
	for seq := uint64(0); seq < 100; seq++ {
		g.Fill(&p, 0, seq)
		if p.Length() != 128 {
			t.Fatalf("frame length %d, want 128", p.Length())
		}
		f := p.Data()
		if packet.EthType(f) != packet.EtherTypeIPv4 {
			t.Fatal("not IPv4")
		}
		if err := packet.CheckIPv4(f[packet.EthHdrLen:]); err != nil {
			t.Fatalf("invalid IPv4 header at seq %d: %v", seq, err)
		}
	}
}

func TestUDP4FlowBound(t *testing.T) {
	g := &UDP4{FrameLen: 64, Flows: 16, Seed: 3}
	var p packet.Packet
	seen := map[uint32]bool{}
	for seq := uint64(0); seq < 1000; seq++ {
		g.Fill(&p, 0, seq)
		seen[packet.IPv4Src(p.Data()[packet.EthHdrLen:])] = true
	}
	if len(seen) > 16 {
		t.Errorf("%d distinct sources, want <= 16", len(seen))
	}
	if len(seen) < 12 {
		t.Errorf("only %d of 16 flows seen in 1000 packets", len(seen))
	}
}

func TestUDP4AttackInjection(t *testing.T) {
	pattern := []byte("EVILPATTERN")
	g := &UDP4{FrameLen: 256, Flows: 10, Seed: 4, AttackFrac: 0.25, AttackPattern: pattern}
	var p packet.Packet
	hits := 0
	const n = 4000
	for seq := uint64(0); seq < n; seq++ {
		g.Fill(&p, 0, seq)
		if bytes.Contains(p.Data(), pattern) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.20 || frac > 0.30 {
		t.Errorf("attack fraction = %v, want ~0.25", frac)
	}
}

func TestUDP4ValidateErrors(t *testing.T) {
	if err := (&UDP4{FrameLen: 10}).Validate(); err == nil {
		t.Error("tiny frame accepted")
	}
	if err := (&UDP4{FrameLen: 64, AttackFrac: 2}).Validate(); err == nil {
		t.Error("bad attack fraction accepted")
	}
	if err := (&UDP6{FrameLen: 40}).Validate(); err == nil {
		t.Error("tiny v6 frame accepted")
	}
}

func TestUDP6ValidFrames(t *testing.T) {
	g := &UDP6{FrameLen: 80, Flows: 30, Seed: 5}
	var p packet.Packet
	for seq := uint64(0); seq < 50; seq++ {
		g.Fill(&p, 1, seq)
		f := p.Data()
		if packet.EthType(f) != packet.EtherTypeIPv6 {
			t.Fatal("not IPv6")
		}
		if err := packet.CheckIPv6(f[packet.EthHdrLen:]); err != nil {
			t.Fatalf("invalid IPv6 header: %v", err)
		}
	}
}

func TestSyntheticCAIDASizeMix(t *testing.T) {
	g := &SyntheticCAIDA{Flows: 1000, Seed: 6}
	var p packet.Packet
	counts := map[int]int{}
	const n = 20000
	for seq := uint64(0); seq < n; seq++ {
		g.Fill(&p, 0, seq)
		counts[p.Length()]++
	}
	small := float64(counts[64]) / n
	if small < 0.72 || small > 0.78 {
		t.Errorf("64B fraction = %v, want ~0.75", small)
	}
	big := float64(counts[1500]) / n
	if big < 0.02 || big > 0.06 {
		t.Errorf("1500B fraction = %v, want ~0.04", big)
	}
	// Empirical mean must match MeanFrameLen within 2%.
	var sum float64
	for ln, c := range counts {
		sum += float64(ln * c)
	}
	emp := sum / n
	if m := g.MeanFrameLen(); math.Abs(emp-m)/m > 0.02 {
		t.Errorf("empirical mean %v vs declared %v", emp, m)
	}
}

func TestSyntheticCAIDAFlowSkew(t *testing.T) {
	g := &SyntheticCAIDA{Flows: 1000, Seed: 7}
	var p packet.Packet
	counts := map[uint32]int{}
	const n = 20000
	for seq := uint64(0); seq < n; seq++ {
		g.Fill(&p, 0, seq)
		counts[packet.IPv4Src(p.Data()[packet.EthHdrLen:])]++
	}
	// Heavy tail: the most popular flow must be well above uniform share.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if uniform := n / 1000; max < 4*uniform {
		t.Errorf("max flow count %d, want >= 4x uniform share %d (heavy tail)", max, uniform)
	}
}

// TestFillDoesNotAllocate gates the per-packet path of every generator: the
// per-packet PRNG lives on Fill's stack.
func TestFillDoesNotAllocate(t *testing.T) {
	gens := map[string]interface {
		Fill(*packet.Packet, int, uint64)
	}{
		"UDP4":           &UDP4{FrameLen: 64, Flows: 100, Seed: 1, AttackFrac: 0.5, AttackPattern: []byte("/bin/sh")},
		"UDP6":           &UDP6{FrameLen: 128, Seed: 2, Dsts: []packet.IPv6Addr{{Hi: 1}}},
		"SyntheticCAIDA": &SyntheticCAIDA{Flows: 1000, Seed: 3},
	}
	var p packet.Packet
	for name, g := range gens {
		seq := uint64(0)
		if allocs := testing.AllocsPerRun(200, func() {
			g.Fill(&p, 1, seq)
			seq++
		}); allocs != 0 {
			t.Errorf("%s.Fill allocates %.1f times per packet, want 0", name, allocs)
		}
	}
}

// TestSyntheticCAIDASharedAcrossGoroutines runs under -race in check.sh: a
// generator is read-only after construction, so concurrent runs may share
// it — through MeanFrameLen (which used to cache on first read) and Fill
// alike.
func TestSyntheticCAIDASharedAcrossGoroutines(t *testing.T) {
	g := &SyntheticCAIDA{Flows: 1000, Seed: 9}
	var want packet.Packet
	g.Fill(&want, 0, 7)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var p packet.Packet
			for i := 0; i < 100; i++ {
				if m := g.MeanFrameLen(); m < 64 || m > 1500 {
					t.Errorf("mean frame length %g", m)
				}
				g.Fill(&p, 0, 7)
				if !bytes.Equal(p.Data(), want.Data()) {
					t.Error("shared generator produced a different frame")
				}
			}
		}()
	}
	wg.Wait()
}
