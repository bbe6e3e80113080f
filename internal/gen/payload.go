package gen

import (
	"nba/internal/packet"
	"nba/internal/rng"
)

// The payload filler is a xorshift chain: six dependent ALU operations per
// byte, so one packet alone keeps a fraction of the core busy. A burst holds
// many packets whose chains are independent; interleaving fillWidth of them
// in one loop lets the core overlap the chains. The width is measured, on
// amd64 over 982 B payloads: one chain writes 420 MB/s, two 650, four 800,
// six and eight no more than four (the loop is issue-bound by then), and a
// narrower width stays full over more of a burst.
const fillWidth = 4

// headerGen is the per-packet half of a generator: header builds the frame
// of the seq-th packet of port into p up to its payload, sets the length and
// returns the packet's random stream and the payload offset. The stream is
// returned by value: through a pointer parameter the lane array of fillBurst
// would escape to the heap.
type headerGen interface {
	header(p *packet.Packet, port int, seq uint64) (rng.Rand, int)
}

// attack is the IDS knob of a generator: with probability frac a packet's
// payload carries pattern at a random offset, if it is long enough.
type attack struct {
	frac    float64
	pattern []byte
}

// lane is one packet in flight through the payload kernel.
type lane struct {
	r       rng.Rand // the packet's stream, from which embed draws after the filler
	x       uint64   // xorshift state of the filler
	payload []byte   // nil: no packet in the lane
	rest    []byte   // the part of payload not written yet
}

// load puts the next packet of pkts[i:] that has a payload into the lane and
// returns the index after it. Packets without payload (a frame that is all
// header) draw nothing and are complete after header. The lane is empty
// (payload nil) when the burst ran out.
//
//nba:hotpath
func (l *lane) load(h headerGen, pkts []*packet.Packet, i, port int) int {
	l.payload, l.rest = nil, nil
	for i < len(pkts) {
		p := pkts[i]
		i++
		r, off := h.header(p, port, p.Seq)
		if data := p.Data(); off < len(data) {
			l.r = r
			l.x = l.r.Uint64() | 1
			l.payload = data[off:]
			l.rest = l.payload
			break
		}
	}
	return i
}

// embed is the attack draw, which follows a packet's filler on its stream r:
// with probability a.frac the payload carries the pattern, if it fits.
//
//nba:hotpath
func embed(payload []byte, r *rng.Rand, a attack) {
	if len(a.pattern) > 0 && a.frac > 0 && r.Bool(a.frac) && len(payload) >= len(a.pattern) {
		copy(payload[r.Intn(len(payload)-len(a.pattern)+1):], a.pattern)
	}
}

// fillStream is the single-stream form of the payload kernel: it writes
// len(b) filler bytes from state x and returns the state after them. The
// bytes are lowercase letters, so the filler cannot match an attack pattern
// by accident.
//
//nba:hotpath
func fillStream(b []byte, x uint64) uint64 {
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = 'a' + byte(x%26)
	}
	return x
}

// fillLockstep is the four-lane form of the same recurrence: it advances
// every lane by n bytes, n at most the shortest remainder, in one loop whose
// four chains are independent.
//
//nba:hotpath
func fillLockstep(ln *[fillWidth]lane, n int) {
	b0, b1, b2, b3 := ln[0].rest[:n], ln[1].rest[:n], ln[2].rest[:n], ln[3].rest[:n]
	x0, x1, x2, x3 := ln[0].x, ln[1].x, ln[2].x, ln[3].x
	for i := 0; i < n; i++ {
		x0 ^= x0 << 13
		x1 ^= x1 << 13
		x2 ^= x2 << 13
		x3 ^= x3 << 13
		x0 ^= x0 >> 7
		x1 ^= x1 >> 7
		x2 ^= x2 >> 7
		x3 ^= x3 >> 7
		x0 ^= x0 << 17
		x1 ^= x1 << 17
		x2 ^= x2 << 17
		x3 ^= x3 << 17
		b0[i] = 'a' + byte(x0%26)
		b1[i] = 'a' + byte(x1%26)
		b2[i] = 'a' + byte(x2%26)
		b3[i] = 'a' + byte(x3%26)
	}
	ln[0].x, ln[1].x, ln[2].x, ln[3].x = x0, x1, x2, x3
	for k := range ln {
		ln[k].rest = ln[k].rest[n:]
	}
}

// fillOne completes one packet whose header returned (*r, off): the
// per-packet path of Fill.
//
//nba:hotpath
func fillOne(p *packet.Packet, r *rng.Rand, off int, a attack) {
	data := p.Data()
	if off >= len(data) {
		return
	}
	fillStream(data[off:], r.Uint64()|1)
	embed(data[off:], r, a)
}

// fillBurst fills every pkts[i] as Fill(pkts[i], port, pkts[i].Seq) would.
// While at least fillWidth packets with payload remain it keeps that many in
// flight: a lane whose packet completes takes its attack draw and is loaded
// with the next packet, so a burst of mixed sizes stays full width. Every
// packet's bytes depend only on its own (seed, port, seq) stream and land in
// its own buffer, so the order in which lanes advance cannot show in the
// result. The lanes live on this frame: generators are shared by concurrent
// runs and stay read-only.
//
//nba:hotpath
func fillBurst(h headerGen, pkts []*packet.Packet, port int, a attack) {
	if len(pkts) < fillWidth {
		for _, p := range pkts {
			r, off := h.header(p, port, p.Seq)
			fillOne(p, &r, off, a)
		}
		return
	}
	var ln [fillWidth]lane
	next, live := 0, 0
	for k := range ln {
		if next = ln[k].load(h, pkts, next, port); ln[k].payload != nil {
			live++
		}
	}
	for live == fillWidth {
		n := len(ln[0].rest)
		for k := 1; k < fillWidth; k++ {
			if len(ln[k].rest) < n {
				n = len(ln[k].rest)
			}
		}
		fillLockstep(&ln, n)
		for k := range ln {
			if len(ln[k].rest) == 0 {
				embed(ln[k].payload, &ln[k].r, a)
				if next = ln[k].load(h, pkts, next, port); ln[k].payload == nil {
					live--
				}
			}
		}
	}
	for k := range ln {
		if ln[k].payload != nil {
			fillStream(ln[k].rest, ln[k].x)
			embed(ln[k].payload, &ln[k].r, a)
		}
	}
}
