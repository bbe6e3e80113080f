package gen

import (
	"bytes"
	"fmt"
	"testing"

	"nba/internal/packet"
	"nba/internal/rng"
)

// burstFiller is the burst face every generator has.
type burstFiller interface {
	filler
	FillBurst(pkts []*packet.Packet, port int)
}

// gappedSeqs returns n increasing sequence numbers with holes, as an RX
// queue numbers a burst after the pool ran dry in the middle of it.
func gappedSeqs(r *rng.Rand, n int) []uint64 {
	seqs := make([]uint64, n)
	seq := r.Uint64() >> 20
	for i := range seqs {
		seq += 1 + uint64(r.Intn(3))*uint64(r.Intn(5))
		seqs[i] = seq
	}
	return seqs
}

// checkBurst fills the packets numbered seqs once as a burst and once one at
// a time, and reports the first frame that differs.
func checkBurst(g burstFiller, port int, seqs []uint64) error {
	burst := make([]*packet.Packet, len(seqs))
	for i, seq := range seqs {
		burst[i] = &packet.Packet{Seq: seq}
	}
	g.FillBurst(burst, port)
	var want packet.Packet
	for i, seq := range seqs {
		want.Reset()
		g.Fill(&want, port, seq)
		if !bytes.Equal(burst[i].Data(), want.Data()) {
			return fmt.Errorf("packet %d of %d (seq %d): burst frame of %d B differs from Fill's %d B",
				i, len(seqs), seq, burst[i].Length(), want.Length())
		}
		if burst[i].Seq != seq {
			return fmt.Errorf("packet %d: FillBurst changed Seq %d to %d", i, seq, burst[i].Seq)
		}
	}
	return nil
}

// TestFillBurstMatchesFill is the byte-identity contract of the burst path:
// whatever the burst length (below, at and above the lane width, and the
// 28- and 64-packet bursts the benchmark workloads poll) and however the
// sequence numbers are spaced, every frame equals Fill's, which
// TestFillGolden pins.
func TestFillBurstMatchesFill(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 28, 64}
	for _, c := range fillCases() {
		g := c.g.(burstFiller)
		r := rng.New(uint64(len(c.name)))
		for _, n := range lengths {
			for port := 0; port < 2; port++ {
				if err := checkBurst(g, port, gappedSeqs(r, n)); err != nil {
					t.Errorf("%s, burst of %d on port %d: %v", c.name, n, port, err)
				}
			}
		}
	}
}

// FuzzFillBurstAgrees draws a generator, its parameters, the sequence
// numbers and the burst length from the fuzz input.
func FuzzFillBurstAgrees(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(64), uint8(28), uint8(0))
	f.Add(uint64(2), uint8(1), uint16(1514), uint8(5), uint8(200))
	f.Add(uint64(3), uint8(2), uint16(0), uint8(64), uint8(3))
	f.Add(uint64(4), uint8(3), uint16(54), uint8(9), uint8(128))
	f.Add(uint64(5), uint8(4), uint16(300), uint8(4), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, kind uint8, size uint16, burst, knob uint8) {
		r := rng.New(seed)
		frac := float64(knob) / 255
		pattern := make([]byte, int(knob)%40)
		for i := range pattern {
			pattern[i] = 'A' + byte(i)
		}
		flows := int(knob) * int(seed%3)
		within := func(lo int) int { return lo + int(size)%(packet.MaxFrameLen-lo+1) }
		var g burstFiller
		switch kind % 3 {
		case 0:
			g = &UDP4{FrameLen: within(42), Flows: flows, Seed: seed, AttackFrac: frac, AttackPattern: pattern}
		case 1:
			g = &UDP6{FrameLen: within(62), Flows: flows, Seed: seed, Dsts: []packet.IPv6Addr{{Hi: seed}, {Lo: seed}}[:seed%3]}
		case 2:
			g = &SyntheticCAIDA{Flows: flows, Seed: seed}
		}
		if err := checkBurst(g, int(seed%4), gappedSeqs(r, int(burst)%80)); err != nil {
			t.Fatalf("%T %+v: %v", g, g, err)
		}
	})
}

// TestFillBurstDoesNotAllocate gates the burst path of every generator
// beside TestFillDoesNotAllocate: the lanes live on fillBurst's stack.
func TestFillBurstDoesNotAllocate(t *testing.T) {
	pkts := make([]*packet.Packet, 28)
	for i := range pkts {
		pkts[i] = &packet.Packet{}
	}
	for _, c := range fillCases() {
		g := c.g.(burstFiller)
		seq := uint64(0)
		if allocs := testing.AllocsPerRun(50, func() {
			for _, p := range pkts {
				p.Seq = seq
				seq += 2
			}
			g.FillBurst(pkts, 1)
		}); allocs != 0 {
			t.Errorf("%s: FillBurst allocates %.1f times per burst, want 0", c.name, allocs)
		}
	}
}

// benchFill times one generator both ways over the same bursts; ns/pkt is
// the number to compare between the Fill and FillBurst rows.
func benchFill(b *testing.B, g burstFiller, burst int, perPacket bool) {
	pkts := make([]*packet.Packet, burst)
	bytesPerBurst := 0
	for i := range pkts {
		pkts[i] = &packet.Packet{Seq: uint64(i)}
		g.Fill(pkts[i], 0, uint64(i))
		bytesPerBurst += pkts[i].Length()
	}
	b.SetBytes(int64(bytesPerBurst))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if perPacket {
			for _, p := range pkts {
				g.Fill(p, 0, p.Seq)
			}
		} else {
			g.FillBurst(pkts, 0)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/pkt")
}

var fillBenchRows = []struct {
	name  string
	g     burstFiller
	burst int
}{
	{"64Bx64", &UDP4{FrameLen: 64, Flows: 8192, Seed: 1}, 64},
	{"1024Bx28", &UDP4{FrameLen: 1024, Flows: 8192, Seed: 1}, 28},
	{"CAIDAx64", &SyntheticCAIDA{Flows: 16384, Seed: 1}, 64},
}

func BenchmarkFill(b *testing.B) {
	for _, row := range fillBenchRows {
		b.Run(row.name, func(b *testing.B) { benchFill(b, row.g, row.burst, true) })
	}
}

func BenchmarkFillBurst(b *testing.B) {
	for _, row := range fillBenchRows {
		b.Run(row.name, func(b *testing.B) { benchFill(b, row.g, row.burst, false) })
	}
}
