// Package gen provides the three deterministic workload generators: UDP4
// and UDP6, the fixed-size random UDP traffic used in most of the paper's
// experiments, and SyntheticCAIDA, a stand-in for the CAIDA 2013 July trace
// used by Figures 2 and 13. Traffic is always generated, never replayed from
// a file.
//
// Every generator is a pure, read-only function of (seed, port, seq), so any
// run is reproducible, RX queues can materialise packets lazily and
// concurrent runs may share one generator. Each has two faces over the same
// bytes: Fill for one packet, and FillBurst for the packets of one RX burst,
// which interleaves their payload fillers (payload.go).
package gen

import (
	"fmt"

	"nba/internal/packet"
	"nba/internal/rng"
)

var (
	// GenSrcMAC/GenDstMAC are the MACs stamped on generated frames.
	GenSrcMAC = [6]byte{0x02, 0x11, 0x22, 0x33, 0x44, 0x01}
	GenDstMAC = [6]byte{0x02, 0x11, 0x22, 0x33, 0x44, 0x02}
)

// udp4Payload is the payload offset of an Ethernet/IPv4/UDP frame.
const udp4Payload = packet.EthHdrLen + packet.IPv4HdrLen + packet.UDPHdrLen

// perPacket derives the deterministic PRNG of one (port, seq) pair. It is
// returned by value so it lives on the caller's stack: Fill runs once per
// generated packet and must not allocate.
func perPacket(seed uint64, port int, seq uint64) (r rng.Rand) {
	r.Seed(seed ^ uint64(port)<<48 ^ seq*0x9E3779B97F4A7C15)
	return r
}

// UDP4 generates fixed-size random IPv4/UDP traffic. A configurable
// fraction of packets carries an attack payload for IDS experiments.
type UDP4 struct {
	// FrameLen is the Ethernet frame length (>= 42).
	FrameLen int
	// Flows bounds the number of distinct 5-tuples (0 means unbounded
	// random addresses).
	Flows int
	// Seed drives all randomness.
	Seed uint64
	// AttackFrac is the fraction of packets whose payload contains
	// AttackPattern (for IDS workloads).
	AttackFrac    float64
	AttackPattern []byte
}

// MeanFrameLen implements netio.Generator.
func (g *UDP4) MeanFrameLen() float64 { return float64(g.FrameLen) }

// Fill implements netio.Generator.
func (g *UDP4) Fill(p *packet.Packet, port int, seq uint64) {
	r, off := g.header(p, port, seq)
	fillOne(p, &r, off, attack{g.AttackFrac, g.AttackPattern})
}

// FillBurst fills every pkts[i] as Fill(pkts[i], port, pkts[i].Seq) would.
//
//nba:hotpath
func (g *UDP4) FillBurst(pkts []*packet.Packet, port int) {
	fillBurst(g, pkts, port, attack{g.AttackFrac, g.AttackPattern})
}

func (g *UDP4) header(p *packet.Packet, port int, seq uint64) (rng.Rand, int) {
	r := perPacket(g.Seed, port, seq)
	src, dst, sport, dport := g.tuple(&r)
	n := packet.BuildUDP4(p.Buf(), GenSrcMAC, GenDstMAC, src, dst, sport, dport, g.FrameLen)
	p.SetLength(n)
	return r, udp4Payload
}

func (g *UDP4) tuple(r *rng.Rand) (src, dst uint32, sport, dport uint16) {
	if g.Flows > 0 {
		flow := uint32(r.Intn(g.Flows))
		// Spread flows over the address space so lookups hit diverse
		// prefixes while staying reproducible.
		src = 0x0A000000 + flow
		dst = flow * 2654435761 // Knuth multiplicative hash
		sport = uint16(1024 + flow%50000)
		dport = uint16(53 + flow%7)
		return
	}
	return r.Uint32(), r.Uint32(), uint16(r.Intn(65535) + 1), uint16(r.Intn(65535) + 1)
}

// UDP6 generates fixed-size random IPv6/UDP traffic. If Dsts is non-empty,
// destination addresses are drawn from it (with randomised host bits) so
// that traffic actually exercises a route table's prefixes instead of
// falling through to the default route.
type UDP6 struct {
	FrameLen int
	Flows    int
	Seed     uint64
	Dsts     []packet.IPv6Addr
}

// MeanFrameLen implements netio.Generator.
func (g *UDP6) MeanFrameLen() float64 { return float64(g.FrameLen) }

// Fill implements netio.Generator.
func (g *UDP6) Fill(p *packet.Packet, port int, seq uint64) {
	r, off := g.header(p, port, seq)
	fillOne(p, &r, off, attack{})
}

// FillBurst fills every pkts[i] as Fill(pkts[i], port, pkts[i].Seq) would.
//
//nba:hotpath
func (g *UDP6) FillBurst(pkts []*packet.Packet, port int) {
	fillBurst(g, pkts, port, attack{})
}

func (g *UDP6) header(p *packet.Packet, port int, seq uint64) (rng.Rand, int) {
	r := perPacket(g.Seed, port, seq)
	var src, dst packet.IPv6Addr
	if g.Flows > 0 {
		flow := uint64(r.Intn(g.Flows))
		src = packet.IPv6Addr{Hi: 0x2001_0DB8_0000_0000 | flow>>16, Lo: flow}
		dst = packet.IPv6Addr{Hi: flow * 0x9E3779B97F4A7C15, Lo: flow * 2654435761}
	} else {
		src = packet.IPv6Addr{Hi: r.Uint64(), Lo: r.Uint64()}
		dst = packet.IPv6Addr{Hi: r.Uint64(), Lo: r.Uint64()}
	}
	if len(g.Dsts) > 0 {
		dst = g.Dsts[r.Intn(len(g.Dsts))]
		dst.Lo |= r.Uint64() & 0xFFFFFFFF // randomise host bits
	}
	n := packet.BuildUDP6(p.Buf(), GenSrcMAC, GenDstMAC, src, dst,
		uint16(r.Intn(65535)+1), uint16(r.Intn(65535)+1), g.FrameLen)
	p.SetLength(n)
	return r, packet.EthHdrLen + packet.IPv6HdrLen + packet.UDPHdrLen
}

// sizeBucket is one step of an empirical frame-size CDF.
type sizeBucket struct {
	len  int
	frac float64 // cumulative probability
}

// caidaBuckets approximates the paper's CAIDA 2013 trace as a strongly
// small-packet-dominated bimodal mix (mean ~180 B). The calibration target
// is Figure 2's premise: packet-count-wise the trace sits just below the
// IPsec CPU/GPU crossover, so GPU-only beats CPU-only and the optimum
// offloading fraction is interior (~80%).
var caidaBuckets = []sizeBucket{
	{64, 0.75},
	{128, 0.85},
	{256, 0.90},
	{512, 0.93},
	{1024, 0.96},
	{1500, 1.00},
}

// SyntheticCAIDA generates IPv4/UDP traffic with the CAIDA-like size mix
// and a heavy-tailed flow popularity distribution.
type SyntheticCAIDA struct {
	Flows int
	Seed  uint64
}

// caidaMean is the mean frame length of caidaBuckets. It is computed once
// here, not cached in the generator, so a SyntheticCAIDA is read-only after
// construction and concurrent runs may share one.
var caidaMean = func() float64 {
	mean, prev := 0.0, 0.0
	for _, b := range caidaBuckets {
		mean += float64(b.len) * (b.frac - prev)
		prev = b.frac
	}
	return mean
}()

// MeanFrameLen implements netio.Generator.
func (g *SyntheticCAIDA) MeanFrameLen() float64 { return caidaMean }

// Fill implements netio.Generator.
func (g *SyntheticCAIDA) Fill(p *packet.Packet, port int, seq uint64) {
	r, off := g.header(p, port, seq)
	fillOne(p, &r, off, attack{})
}

// FillBurst fills every pkts[i] as Fill(pkts[i], port, pkts[i].Seq) would.
//
//nba:hotpath
func (g *SyntheticCAIDA) FillBurst(pkts []*packet.Packet, port int) {
	fillBurst(g, pkts, port, attack{})
}

func (g *SyntheticCAIDA) header(p *packet.Packet, port int, seq uint64) (rng.Rand, int) {
	r := perPacket(g.Seed, port, seq)
	u := r.Float64()
	frameLen := caidaBuckets[len(caidaBuckets)-1].len
	for _, b := range caidaBuckets {
		if u < b.frac {
			frameLen = b.len
			break
		}
	}
	flows := g.Flows
	if flows <= 0 {
		flows = 65536
	}
	// Heavy-tailed flow popularity: squaring a uniform variate concentrates
	// mass on low flow IDs (a cheap Zipf-like skew).
	v := r.Float64()
	flow := uint32(v * v * float64(flows))
	src := 0x0A000000 + flow
	dst := flow*2654435761 + uint32(flow>>8)
	n := packet.BuildUDP4(p.Buf(), GenSrcMAC, GenDstMAC, src, dst,
		uint16(1024+flow%40000), uint16(53+flow%11), frameLen)
	p.SetLength(n)
	return r, udp4Payload
}

// checkFrameLen rejects a frame length the header builders would panic on.
func checkFrameLen(kind string, n, minLen int) error {
	if n < minLen || n > packet.MaxFrameLen {
		return fmt.Errorf("gen: %s frame length %d out of range [%d,%d]", kind, n, minLen, packet.MaxFrameLen)
	}
	return nil
}

// checkFrac rejects a fraction outside [0,1], NaN included.
func checkFrac(kind, name string, f float64) error {
	if !(f >= 0 && f <= 1) {
		return fmt.Errorf("gen: %s %s %g out of [0,1]", kind, name, f)
	}
	return nil
}

// Validate checks generator parameters.
func (g *UDP4) Validate() error {
	if err := checkFrameLen("UDP4", g.FrameLen, udp4Payload); err != nil {
		return err
	}
	return checkFrac("UDP4", "attack fraction", g.AttackFrac)
}

// Validate checks generator parameters.
func (g *UDP6) Validate() error {
	return checkFrameLen("UDP6", g.FrameLen, packet.EthHdrLen+packet.IPv6HdrLen+packet.UDPHdrLen)
}
