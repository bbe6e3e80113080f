package gen

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"nba/internal/golden"
	"nba/internal/packet"
)

// filler is the fill half of netio.Generator, which every generator is.
type filler interface {
	Fill(p *packet.Packet, port int, seq uint64)
}

type fillCase struct {
	name string
	g    filler
}

// fillCases is the generator matrix TestFillGolden pins: every
// generator, frame lengths around the header boundary (42 B has no payload),
// bounded and unbounded flows, and attack patterns longer than some payloads.
func fillCases() []fillCase {
	pattern := []byte("EVIL-PATTERN-16B")
	var cases []fillCase
	for _, n := range []int{42, 43, 60, 64, 1024, 1514} {
		cases = append(cases,
			fillCase{fmt.Sprintf("UDP4/%d", n), &UDP4{FrameLen: n, Seed: 11}},
			fillCase{fmt.Sprintf("UDP4/%d/flows", n), &UDP4{FrameLen: n, Flows: 100, Seed: 12}})
	}
	for _, n := range []int{50, 64, 1024} { // 8 B of payload cannot hold the pattern
		cases = append(cases, fillCase{fmt.Sprintf("UDP4/%d/attack", n),
			&UDP4{FrameLen: n, Flows: 10, Seed: 13, AttackFrac: 0.5, AttackPattern: pattern}})
	}
	dsts := []packet.IPv6Addr{{Hi: 0x2001_0DB8_0001_0000}, {Hi: 0x2001_0DB8_0002_0000}, {Hi: 0xFD00_0000_0000_0001}}
	return append(cases,
		fillCase{"UDP6/62", &UDP6{FrameLen: 62, Seed: 16}},
		fillCase{"UDP6/128/flows", &UDP6{FrameLen: 128, Flows: 30, Seed: 17}},
		fillCase{"UDP6/256/dsts", &UDP6{FrameLen: 256, Seed: 18, Dsts: dsts}},
		fillCase{"SyntheticCAIDA", &SyntheticCAIDA{Flows: 1000, Seed: 19}},
		fillCase{"SyntheticCAIDA/defaultflows", &SyntheticCAIDA{Seed: 20}},
	)
}

// goldenSeq spreads the pinned frames over non-contiguous sequence numbers
// and three ports.
func goldenSeq(i int) (port int, seq uint64) {
	return i % 3, uint64(i)*7 + uint64(i/50)*1_000_003
}

// TestFillGolden pins Fill: sha256 over 256 frames (length-prefixed) per
// case, in testdata/fill.golden. Every generated byte is part of every run's
// identity (trace digests, TX fingerprints), so a change here is never a
// refactor.
func TestFillGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range fillCases() {
		h := sha256.New()
		var p packet.Packet
		for i := 0; i < 256; i++ {
			port, seq := goldenSeq(i)
			p.Reset()
			c.g.Fill(&p, port, seq)
			h.Write([]byte{byte(p.Length() >> 8), byte(p.Length())})
			h.Write(p.Data())
		}
		fmt.Fprintf(&sb, "%s %s\n", c.name, hex.EncodeToString(h.Sum(nil)))
	}
	golden.Check(t, "testdata/fill.golden", sb.String())
}
