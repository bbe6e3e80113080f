package element

import (
	"encoding/binary"
	"testing"

	"nba/internal/packet"
	"nba/internal/rng"
)

// Differential tests for the IPv4 checksum recompute paths the datapath
// relies on — packet.InternetChecksum (used by CheckIPHeader and the IPsec
// ESP encapsulation's outer-header rebuild) and the RFC 1624 incremental
// update in DecIPTTL — against a naive oracle written straight from the
// RFC 1071 pseudo-code. A silent divergence here is exactly the class of
// corruption the integrity sentinel exists to catch downstream, so the
// primitives themselves get an independent check.

// naiveRFC1071 is the oracle: pad to even length, sum 16-bit big-endian
// words into a wide accumulator, fold once at the end, complement. No
// incremental tricks, no early folding.
func naiveRFC1071(b []byte) uint16 {
	buf := append(append([]byte(nil), b...), 0)
	var sum uint64
	for i := 0; i+1 < len(buf); i += 2 {
		sum += uint64(buf[i])<<8 | uint64(buf[i+1])
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

func TestInternetChecksumMatchesNaiveOracle(t *testing.T) {
	r := rng.New(1071)
	// Every length 0..300 (hitting each odd/even edge), then a spread of
	// larger frames up to MTU-ish sizes, all with random contents.
	lengths := []int{}
	for n := 0; n <= 300; n++ {
		lengths = append(lengths, n)
	}
	for n := 301; n < 1600; n += 37 {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		if got, want := packet.InternetChecksum(b), naiveRFC1071(b); got != want {
			t.Fatalf("len %d: InternetChecksum %#04x, oracle %#04x", n, got, want)
		}
	}

	// The sum runs over 64-, 32-, 16- and 8-bit pieces: every length that
	// combines them (0..64) and the MTU-sized ones, at every alignment of a
	// shared buffer, with random bytes, with all-0xFF bytes (every addition
	// carries) and with all-zero bytes (the sum that must stay 0).
	shared := make([]byte, 1514+8)
	fills := map[string]func(i int) byte{
		"random": func(int) byte { return byte(r.Uint64()) },
		"0xFF":   func(int) byte { return 0xff },
		"zero":   func(int) byte { return 0 },
	}
	for _, name := range []string{"random", "0xFF", "zero"} {
		for i := range shared {
			shared[i] = fills[name](i)
		}
		for off := 0; off < 8; off++ {
			for n := 0; n <= 1514; n++ {
				if n > 64 && n != 1499 && n != 1500 && n != 1514 {
					continue
				}
				b := shared[off : off+n]
				if got, want := packet.InternetChecksum(b), naiveRFC1071(b); got != want {
					t.Fatalf("%s bytes, offset %d, len %d: InternetChecksum %#04x, oracle %#04x", name, off, n, got, want)
				}
			}
		}
	}
	// The zero-checksum edge: a buffer whose words sum to 0xFFFF checksums to
	// 0, not to the other one's-complement zero, wherever the odd word sits.
	for n := 2; n <= 64; n += 2 {
		for at := 0; at < n; at += 2 {
			b := make([]byte, n)
			b[at], b[at+1] = 0xff, 0xff
			if got := packet.InternetChecksum(b); got != 0 || naiveRFC1071(b) != 0 {
				t.Fatalf("len %d, 0xFFFF at %d: InternetChecksum %#04x, oracle %#04x, want 0", n, at, got, naiveRFC1071(b))
			}
		}
	}

	// Fixed edge vectors: empty, single byte, all-zero, all-ones.
	for _, b := range [][]byte{{}, {0x01}, {0x00, 0x00, 0x00}, {0xff, 0xff, 0xff, 0xff}} {
		if got, want := packet.InternetChecksum(b), naiveRFC1071(b); got != want {
			t.Fatalf("vector %v: InternetChecksum %#04x, oracle %#04x", b, got, want)
		}
	}
}

// randIPv4Header builds a random but structurally valid 20-byte IPv4 header
// with a zeroed checksum field.
func randIPv4Header(r *rng.Rand) []byte {
	h := make([]byte, packet.IPv4HdrLen)
	h[0] = 0x45
	h[1] = byte(r.Uint64())
	binary.BigEndian.PutUint16(h[2:4], uint16(packet.IPv4HdrLen+r.Intn(1400)))
	binary.BigEndian.PutUint16(h[4:6], uint16(r.Uint64())) // ID
	h[8] = byte(2 + r.Intn(253))                           // TTL >= 2
	h[9] = byte(r.Intn(256))
	packet.SetIPv4Src(h, uint32(r.Uint64()))
	packet.SetIPv4Dst(h, uint32(r.Uint64()))
	return h
}

func TestSetIPv4ChecksumMatchesOracle(t *testing.T) {
	r := rng.New(7)
	for i := 0; i < 2000; i++ {
		h := randIPv4Header(r)
		want := naiveRFC1071(h) // checksum field is zero here
		packet.SetIPv4Checksum(h)
		if got := packet.IPv4Checksum(h); got != want {
			t.Fatalf("header %d: stored %#04x, oracle %#04x", i, got, want)
		}
		// The RFC's own verification rule: summing a header that contains
		// its valid checksum yields zero.
		if v := packet.InternetChecksum(h); v != 0 {
			t.Fatalf("header %d: verification sum %#04x, want 0", i, v)
		}
	}
}

// TestDecTTLIncrementalMatchesRecompute: DecIPv4TTL's RFC 1624 incremental
// update must land on the same checksum as zeroing the field and fully
// recomputing after the TTL decrement — for every TTL value.
func TestDecTTLIncrementalMatchesRecompute(t *testing.T) {
	r := rng.New(1624)
	for i := 0; i < 2000; i++ {
		h := randIPv4Header(r)
		packet.SetIPv4Checksum(h)

		full := append([]byte(nil), h...)
		full[8]--
		packet.SetIPv4Checksum(full)

		if err := packet.DecIPv4TTL(h); err != nil {
			t.Fatalf("header %d: unexpected TTL expiry at TTL %d", i, h[8]+1)
		}
		if got, want := packet.IPv4Checksum(h), packet.IPv4Checksum(full); got != want {
			t.Fatalf("header %d: incremental %#04x, full recompute %#04x", i, got, want)
		}
	}
}

// TestZeroChecksumHeader pins the awkward one's-complement edge: a header
// whose words sum to 0xffff stores checksum 0x0000. Validation must accept
// it and a recompute must be idempotent (store zero again), not flip to the
// negative-zero representation 0xffff.
func TestZeroChecksumHeader(t *testing.T) {
	h := randIPv4Header(rng.New(3))
	// CheckIPv4 validates the total length against the slice, which here is
	// the bare 20-byte header.
	binary.BigEndian.PutUint16(h[2:4], packet.IPv4HdrLen)
	// Solve for the ID field that drives the one's-complement sum to 0xffff,
	// i.e. the stored checksum to zero.
	binary.BigEndian.PutUint16(h[4:6], 0)
	partial := ^naiveRFC1071(h) // one's-complement sum of all other words
	binary.BigEndian.PutUint16(h[4:6], ^partial)
	packet.SetIPv4Checksum(h)
	if got := packet.IPv4Checksum(h); got != 0 {
		t.Fatalf("constructed header stores checksum %#04x, want 0x0000", got)
	}
	if err := packet.CheckIPv4(h); err != nil {
		t.Fatalf("zero-checksum header rejected: %v", err)
	}
	packet.SetIPv4Checksum(h)
	if got := packet.IPv4Checksum(h); got != 0 {
		t.Fatalf("recompute not idempotent on zero checksum: %#04x", got)
	}
}

// TestTTLElementsKeepHeadersValid runs the actual TTL element — DecIPTTL,
// with its incremental update — over a generator-built frame and checks the
// rewritten header's checksum.
func TestTTLElementsKeepHeadersValid(t *testing.T) {
	_, pc := newCtx()

	dec := &DecIPTTL{}
	p := mkIPv4Packet(t, 64)
	if out := dec.Process(pc, p); out != 0 {
		t.Fatalf("DecIPTTL dropped a fresh frame: %d", out)
	}
	h := p.Data()[packet.EthHdrLen:]
	if packet.IPv4TTL(h) != 63 {
		t.Fatalf("TTL after DecIPTTL = %d, want 63", packet.IPv4TTL(h))
	}
	if v := packet.InternetChecksum(h[:packet.IPv4IHL(h)]); v != 0 {
		t.Fatalf("DecIPTTL left an invalid checksum: verification sum %#04x", v)
	}

}
