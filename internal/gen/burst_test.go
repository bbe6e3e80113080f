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

// testVecs are the fillBurst forms held to the same bytes: the Go lanes,
// and the host's, which is fillVector on an amd64 CPU with AVX-512 (and
// the Go lanes again elsewhere).
func testVecs() []struct {
	name string
	vec  bool
} {
	return []struct {
		name string
		vec  bool
	}{{"go", false}, {"host", hostVec()}}
}

// burstVia is g.FillBurst with the vector routine choice vec.
func burstVia(g burstFiller, pkts []*packet.Packet, port int, vec bool) {
	switch g := g.(type) {
	case *UDP4:
		fillBurst(g, pkts, port, attack{g.AttackFrac, g.AttackPattern}, vec)
	case *UDP6:
		fillBurst(g, pkts, port, attack{}, vec)
	case *SyntheticCAIDA:
		fillBurst(g, pkts, port, attack{}, vec)
	default:
		panic(fmt.Sprintf("burstVia: %T", g))
	}
}

// checkBurst fills the packets numbered seqs once as a burst and once one at
// a time, and reports the first frame that differs.
func checkBurst(g burstFiller, port int, seqs []uint64, vec bool) error {
	burst := make([]*packet.Packet, len(seqs))
	for i, seq := range seqs {
		burst[i] = &packet.Packet{Seq: seq}
	}
	burstVia(g, burst, port, vec)
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

// TestFillBurstMatchesFill is the byte-identity contract of the burst path,
// on every form: whatever the burst length (below, at and above both lane
// widths, and the 28- and 64-packet bursts the benchmark workloads poll)
// and however the sequence numbers are spaced, every frame equals Fill's,
// which TestFillGolden pins.
func TestFillBurstMatchesFill(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 28, 64}
	for _, v := range testVecs() {
		for _, c := range fillCases() {
			r := rng.New(uint64(len(c.name)))
			for _, n := range lengths {
				for port := 0; port < 2; port++ {
					if err := checkBurst(c.g.(burstFiller), port, gappedSeqs(r, n), v.vec); err != nil {
						t.Errorf("%s: %s, burst of %d on port %d: %v", v.name, c.name, n, port, err)
					}
				}
			}
		}
	}
}

// FuzzFillBurstAgrees draws a generator, its parameters, the sequence
// numbers and the burst length from the fuzz input, and checks every form.
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
		seqs := gappedSeqs(r, int(burst)%80)
		for _, v := range testVecs() {
			if err := checkBurst(g, int(seed%4), seqs, v.vec); err != nil {
				t.Fatalf("%s: %T %+v: %v", v.name, g, g, err)
			}
		}
	})
}

// FuzzFillRoutineAgrees holds fillVector to fillStream lane by lane: the
// bytes it writes, the states it leaves, and nothing written past n or for
// an empty lane. Lane 0 starts from x0, the others from seed's stream; bit
// k of empty empties lane k. The second seed's x0 steps to a state whose
// hi*22 + lo is a multiple of 26, where the float64 quotient is exact: the
// edge of the correction step.
func FuzzFillRoutineAgrees(f *testing.F) {
	f.Add(uint64(1), uint64(1), uint16(1010), uint8(0))
	f.Add(uint64(0xf68e8aa72b4fbad1), uint64(2), uint16(8), uint8(0))
	f.Add(uint64(3), uint64(3), uint16(1500), uint8(0b10100101))
	f.Add(uint64(0), uint64(4), uint16(7), uint8(0xfe))
	f.Fuzz(func(t *testing.T, x0, seed uint64, length uint16, empty uint8) {
		if !hostVec() {
			t.Skip("no vector routine on this host")
		}
		const guard = 0xEE
		size := int(length) % 1501
		n := size &^ 7
		r := rng.New(seed)
		var x, want [vecWidth]uint64
		var p [vecWidth]*byte
		var bufs, wantBufs [vecWidth][]byte
		for k := range p {
			x[k] = r.Uint64()
			if k == 0 {
				x[k] = x0
			}
			bufs[k] = bytes.Repeat([]byte{guard}, size+8)
			wantBufs[k] = bytes.Repeat([]byte{guard}, size+8)
			want[k] = x[k]
			if empty&(1<<k) == 0 && n > 0 {
				p[k] = &bufs[k][0]
				want[k] = fillStream(wantBufs[k][:n], x[k])
			}
		}
		if n > 0 {
			fillVector(&x, &p, n)
		}
		for k := range p {
			if !bytes.Equal(bufs[k], wantBufs[k]) {
				t.Errorf("lane %d (empty %v, n %d): bytes differ from fillStream's", k, p[k] == nil, n)
			}
			if x[k] != want[k] {
				t.Errorf("lane %d (empty %v, n %d): state %#x, fillStream leaves %#x", k, p[k] == nil, n, x[k], want[k])
			}
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

// benchFill times one generator over the same bursts, per packet (Fill) or
// as bursts on one form; ns/pkt is the number to compare between the rows.
func benchFill(b *testing.B, g burstFiller, burst int, perPacket, vec bool) {
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
			burstVia(g, pkts, 0, vec)
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
		b.Run(row.name, func(b *testing.B) { benchFill(b, row.g, row.burst, true, false) })
	}
}

// BenchmarkFillBurst has one row per form and generator.
func BenchmarkFillBurst(b *testing.B) {
	for _, row := range fillBenchRows {
		for _, v := range testVecs() {
			b.Run(row.name+"/"+v.name, func(b *testing.B) { benchFill(b, row.g, row.burst, false, v.vec) })
		}
	}
}
