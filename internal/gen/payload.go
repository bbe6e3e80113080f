package gen

import (
	"encoding/binary"

	"nba/internal/packet"
	"nba/internal/rng"
)

// The payload filler is counter-based (Salmon et al., "Parallel Random
// Numbers: As Easy as 1, 2, 3", SC'11): word i of a payload is the
// splitmix64 finaliser of key + (i+1)·φ, where key is the packet's draw. No
// word depends on another, so one plain loop runs at the core's throughput,
// not at the latency of a chain.
//
// Each byte b of a word becomes the letter 'a' + (b·26 >> 8): letter k gets
// the 9 or 10 byte values b with b·26 >> 8 = k. The bytes are lowercase
// letters, so the filler cannot match an attack pattern by accident.
const phi = 0x9E3779B97F4A7C15

// attack is the IDS knob of a generator: with probability frac a packet's
// payload carries pattern at a random offset, if it is long enough.
type attack struct {
	frac    float64
	pattern []byte
}

// fillOne completes one packet whose header left its stream at *r and put
// the payload at off: the filler's key is the stream's next draw, and the
// attack draw follows it.
//
//nba:hotpath
func fillOne(p *packet.Packet, r *rng.Rand, off int, a attack) {
	data := p.Data()
	if off >= len(data) {
		return
	}
	payload := data[off:]
	fillPayload(payload, r.Uint64())
	if len(a.pattern) > 0 && a.frac > 0 && r.Bool(a.frac) && len(payload) >= len(a.pattern) {
		copy(payload[r.Intn(len(payload)-len(a.pattern)+1):], a.pattern)
	}
}

// fillPayload writes len(b) filler bytes for key: word i covers b[8i:8i+8],
// least significant byte first, and the last word is cut to what is left.
//
//nba:hotpath
func fillPayload(b []byte, key uint64) {
	x := key
	for len(b) >= 8 {
		x += phi
		binary.LittleEndian.PutUint64(b, letters(mix(x)))
		b = b[8:]
	}
	if len(b) > 0 {
		w := letters(mix(x + phi))
		for i := range b {
			b[i] = byte(w >> (8 * i))
		}
	}
}

// mix is splitmix64's finaliser.
func mix(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// letters maps each byte b of w to 'a' + (b·26 >> 8). The even and the odd
// bytes each sit in the low half of four 16-bit lanes, where b·26 < 2^16
// cannot carry into the next lane, so two multiplies scale all eight.
func letters(w uint64) uint64 {
	const lo = 0x00FF00FF00FF00FF
	even := (w & lo) * 26 >> 8 & lo
	odd := (w >> 8 & lo) * 26 &^ lo
	return even | odd + 0x6161616161616161
}
