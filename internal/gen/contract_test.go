package gen

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"nba/internal/packet"
	"nba/internal/rng"
	"nba/internal/simtime"
)

// fuzzGen draws a generator and its parameters: kind picks the type, size
// the frame length within the type's range, and knob the attack fraction,
// the pattern length and, with seed, the flow bound. The pattern starts with
// 'A', which the filler never writes.
func fuzzGen(seed uint64, kind, knob uint8, size uint16) filler {
	pattern := make([]byte, int(knob)%40)
	for i := range pattern {
		pattern[i] = 'A' + byte(i)
	}
	flows := int(knob) * int(seed%3)
	within := func(lo int) int { return lo + int(size)%(packet.MaxFrameLen-lo+1) }
	switch kind % 3 {
	case 0:
		return &UDP4{FrameLen: within(42), Flows: flows, Seed: seed, AttackFrac: float64(knob) / 255, AttackPattern: pattern}
	case 1:
		return &UDP6{FrameLen: within(62), Flows: flows, Seed: seed, Dsts: []packet.IPv6Addr{{Hi: seed}, {Lo: seed}}[:seed%3]}
	default:
		return &SyntheticCAIDA{Flows: flows, Seed: seed}
	}
}

// payloadOf returns the filler's part of a frame g made and the pattern g
// may have embedded in it.
func payloadOf(g filler, frame []byte) (payload, pattern []byte) {
	switch g := g.(type) {
	case *UDP4:
		return frame[udp4Payload:], g.AttackPattern
	case *UDP6:
		return frame[packet.EthHdrLen+packet.IPv6HdrLen+packet.UDPHdrLen:], nil
	case *SyntheticCAIDA:
		return frame[udp4Payload:], nil
	}
	panic(fmt.Sprintf("payloadOf: %T", g))
}

// checkContract fills the seq-th packet of port into a buffer left dirty
// from dirt — random bytes, length and metadata — and holds it to the
// generator contract: the frame is the one filled into a clean buffer, Fill
// changed nothing but the frame's bytes and length, and every payload byte
// outside an embedded pattern is a lowercase letter.
func checkContract(g filler, port int, seq, dirt uint64) error {
	var clean packet.Packet
	g.Fill(&clean, port, seq)

	r := rng.New(dirt)
	p := new(packet.Packet)
	for i := range p.Buf() {
		p.Buf()[i] = byte(r.Uint32())
	}
	p.SetLength(r.Intn(packet.MaxFrameLen + 1))
	p.Stamp(r.Uint64(), simtime.Time(r.Uint64()>>2), r.Intn(8), int32(r.Intn(4)))
	p.OrigLen, p.Tainted = r.Intn(packet.MaxFrameLen), r.Bool(0.5)
	for i := range p.Anno {
		p.Anno[i] = r.Uint64()
	}
	before := *p

	g.Fill(p, port, seq)
	if !bytes.Equal(p.Data(), clean.Data()) {
		return fmt.Errorf("frame of %d B filled over a dirty buffer differs from the clean fill's %d B", p.Length(), clean.Length())
	}
	if p.Arrival != before.Arrival || p.InPort != before.InPort || p.Seq != before.Seq || p.OrigLen != before.OrigLen ||
		p.Tenant != before.Tenant || p.Anno != before.Anno || p.Tainted != before.Tainted {
		return fmt.Errorf("Fill changed the packet's metadata")
	}
	if !bytes.Equal(p.Buf()[p.Length():], before.Buf()[p.Length():]) {
		return fmt.Errorf("Fill wrote past its %d B frame", p.Length())
	}
	payload, pattern := payloadOf(g, p.Data())
	if k := bytes.Index(payload, pattern); len(pattern) > 0 && k >= 0 {
		payload = append(payload[:k:k], payload[k+len(pattern):]...)
	}
	for i, b := range payload {
		if b < 'a' || b > 'z' {
			return fmt.Errorf("payload byte %d is %#x, not a lowercase letter", i, b)
		}
	}
	return nil
}

// FuzzFillContract holds every generator to the one fill contract: first
// each case of TestFillGolden's matrix over 64 seqs on two ports, then
// generators drawn from the fuzz input. The seeds keep the matrix's edge
// cases too: 42 B frames (no payload, nothing drawn), 1514 B frames, attack
// patterns longer than the payload, bounded and unbounded flows, and each
// generator type.
func FuzzFillContract(f *testing.F) {
	for _, c := range fillCases() {
		for i := 0; i < 64; i++ {
			port, seq := goldenSeq(i)
			if err := checkContract(c.g, port%2, seq, uint64(i)); err != nil {
				f.Fatalf("%s, port %d, seq %d: %v", c.name, port%2, seq, err)
			}
		}
	}
	f.Add(uint64(1), uint64(7), uint8(0), uint8(0), uint16(22))         // UDP4 64 B, unbounded
	f.Add(uint64(2), uint64(3), uint8(0), uint8(39), uint16(0))         // UDP4 42 B, bounded, attack
	f.Add(uint64(3), uint64(1<<40), uint8(0), uint8(255), uint16(1472)) // UDP4 1514 B, every packet attacked
	f.Add(uint64(5), uint64(9), uint8(0), uint8(239), uint16(8))        // 39 B pattern, 8 B payload
	f.Add(uint64(4), uint64(100), uint8(1), uint8(128), uint16(0))      // UDP6 62 B, one destination
	f.Add(uint64(7), uint64(5), uint8(1), uint8(7), uint16(1600))       // UDP6, bounded, no destinations
	f.Add(uint64(6), uint64(12345), uint8(2), uint8(3), uint16(0))      // CAIDA, default flows
	f.Add(uint64(8), uint64(77), uint8(2), uint8(100), uint16(0))       // CAIDA, bounded
	f.Fuzz(func(t *testing.T, seed, seq uint64, kind, knob uint8, size uint16) {
		g := fuzzGen(seed, kind, knob, size)
		if err := checkContract(g, int(seed%4), seq, seed^seq); err != nil {
			t.Fatalf("%T %+v, port %d, seq %d: %v", g, g, seed%4, seq, err)
		}
	})
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

// checkBurst fills the packets numbered seqs as an RX poll does: one Fill
// per packet, in order, into buffers a burst on another port left dirty. It
// reports the first frame that differs from Fill's into a clean packet, or
// whose Seq Fill changed. A generator keeps no state between calls, so
// neither the order of a burst nor what its buffers held can move a frame.
func checkBurst(g filler, port int, seqs []uint64) error {
	burst := make([]*packet.Packet, len(seqs))
	for i := range burst {
		burst[i] = new(packet.Packet)
		g.Fill(burst[i], port+1, seqs[len(seqs)-1-i])
	}
	for i, seq := range seqs {
		burst[i].Seq = seq
		g.Fill(burst[i], port, seq)
	}
	var want packet.Packet
	for i, seq := range seqs {
		want.Reset()
		g.Fill(&want, port, seq)
		if !bytes.Equal(burst[i].Data(), want.Data()) {
			return fmt.Errorf("packet %d of %d (seq %d): burst frame of %d B differs from Fill's %d B",
				i, len(seqs), seq, burst[i].Length(), want.Length())
		}
		if burst[i].Seq != seq {
			return fmt.Errorf("packet %d: Fill changed Seq %d to %d", i, seq, burst[i].Seq)
		}
	}
	return nil
}

// TestFillBurstMatchesFill holds the per-packet Fill calls of a burst to
// Fill alone, on every case of TestFillGolden's matrix: whatever the burst
// length (up to the 28- and 64-packet bursts the benchmark workloads poll)
// and however the sequence numbers are spaced, every frame equals the one
// TestFillGolden pins.
func TestFillBurstMatchesFill(t *testing.T) {
	lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 28, 64}
	for _, c := range fillCases() {
		r := rng.New(uint64(len(c.name)))
		for _, n := range lengths {
			for port := 0; port < 2; port++ {
				if err := checkBurst(c.g, port, gappedSeqs(r, n)); err != nil {
					t.Errorf("%s, burst of %d on port %d: %v", c.name, n, port, err)
				}
			}
		}
	}
}

// FuzzFillBurstAgrees draws a generator, its parameters, the sequence
// numbers and the burst length from the fuzz input, and holds the burst to
// Fill alone as TestFillBurstMatchesFill does.
func FuzzFillBurstAgrees(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(64), uint8(28), uint8(0))
	f.Add(uint64(2), uint8(1), uint16(1514), uint8(5), uint8(200))
	f.Add(uint64(3), uint8(2), uint16(0), uint8(64), uint8(3))
	f.Add(uint64(4), uint8(3), uint16(54), uint8(9), uint8(128))
	f.Add(uint64(5), uint8(4), uint16(300), uint8(4), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, kind uint8, size uint16, burst, knob uint8) {
		g := fuzzGen(seed, kind, knob, size)
		if err := checkBurst(g, int(seed%4), gappedSeqs(rng.New(seed), int(burst)%80)); err != nil {
			t.Fatalf("%T %+v: %v", g, g, err)
		}
	})
}

// TestPayloadAlphabet pins the filler's alphabet, which the claim that the
// filler cannot match an attack pattern by accident rests on. letters maps
// every pair of adjacent byte values, in every 16-bit lane at once, to
// 'a' + (b·26 >> 8), so each letter has 9 or 10 of the 256 byte values. At
// every payload length up to the longest UDP4 payload (so every len%8 tail
// of the last word) each byte is a lowercase letter, nothing past the
// payload is written, and a shorter payload is a prefix of a longer one from
// the same key. Over all those bytes each letter's share is its 9 or 10 of
// 256, within five standard deviations.
func TestPayloadAlphabet(t *testing.T) {
	const lanes = 0x0001000100010001
	for v := uint64(0); v < 1<<16; v++ {
		w := letters(v * lanes)
		for i := 0; i < 8; i++ {
			b := v >> (8 * (i % 2)) & 0xFF
			if got, want := byte(w>>(8*i)), byte('a'+b*26>>8); got != want {
				t.Fatalf("letters(%#x) byte %d = %q, want %q", v*lanes, i, got, want)
			}
		}
	}
	var values [26]int // byte values per letter
	for v := 0; v < 256; v++ {
		values[v*26>>8]++
	}

	const longest = 1514 - udp4Payload // 1472
	const guard = 0xEE
	var counts [26]int
	total := 0
	full := make([]byte, longest)
	for n := 0; n <= longest; n++ {
		key := uint64(n) * 0xD1B54A32D192ED03
		fillPayload(full, key)
		b := bytes.Repeat([]byte{guard}, n+8)
		fillPayload(b[:n], key)
		if !bytes.Equal(b[:n], full[:n]) {
			t.Fatalf("%d B payload is not a prefix of the %d B payload of the same key", n, longest)
		}
		for i, c := range b[n:] {
			if c != guard {
				t.Fatalf("%d B payload: byte %d past it was written", n, i)
			}
		}
		for i, c := range b[:n] {
			if c < 'a' || c > 'z' {
				t.Fatalf("%d B payload: byte %d is %#x, not a lowercase letter", n, i, c)
			}
			counts[c-'a']++
		}
		total += n
	}
	for k, c := range counts {
		if values[k] != 9 && values[k] != 10 {
			t.Fatalf("letter %c has %d byte values, want 9 or 10", 'a'+k, values[k])
		}
		want := float64(values[k]) / 256
		got := float64(c) / float64(total)
		if tol := 5 * math.Sqrt(want*(1-want)/float64(total)); math.Abs(got-want) > tol {
			t.Errorf("letter %c: share %.5f over %d bytes, want %d/256 = %.5f ± %.5f", 'a'+k, got, total, values[k], want, tol)
		}
	}
}

// BenchmarkFill times Fill over the packets of one burst per workload;
// ns/pkt is the number to compare between the rows.
func BenchmarkFill(b *testing.B) {
	for _, row := range []struct {
		name  string
		g     filler
		burst int
	}{
		{"64Bx64", &UDP4{FrameLen: 64, Flows: 8192, Seed: 1}, 64},
		{"1024Bx28", &UDP4{FrameLen: 1024, Flows: 8192, Seed: 1}, 28},
		{"CAIDAx64", &SyntheticCAIDA{Flows: 16384, Seed: 1}, 64},
	} {
		b.Run(row.name, func(b *testing.B) {
			pkts := make([]*packet.Packet, row.burst)
			bytesPerBurst := 0
			for i := range pkts {
				pkts[i] = &packet.Packet{}
				row.g.Fill(pkts[i], 0, uint64(i))
				bytesPerBurst += pkts[i].Length()
			}
			b.SetBytes(int64(bytesPerBurst))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for seq, p := range pkts {
					row.g.Fill(p, 0, uint64(seq))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*row.burst), "ns/pkt")
		})
	}
}
