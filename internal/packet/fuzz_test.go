package packet

import (
	"bytes"
	"testing"
)

// fuzzSeedUDP4 builds a well-formed Ethernet+IPv4+UDP frame for the corpus.
func fuzzSeedUDP4() []byte {
	buf := make([]byte, 128)
	n := BuildUDP4(buf, [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2},
		0x0A000001, 0xC0A80101, 1234, 53, 64)
	return buf[:n]
}

func fuzzSeedUDP6() []byte {
	buf := make([]byte, 128)
	n := BuildUDP6(buf, [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2},
		IPv6Addr{Hi: 0x20010DB800000000, Lo: 1}, IPv6Addr{Hi: 0x20010DB800000000, Lo: 2},
		1234, 53, 80)
	return buf[:n]
}

// FuzzHeaderParse throws arbitrary bytes at the header validators and
// accessors: nothing may panic, and on frames that validate, re-serializing
// the checksum and decrementing the TTL must keep the header valid.
func FuzzHeaderParse(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte{0x45})
	f.Add(fuzzSeedUDP4())
	f.Add(fuzzSeedUDP6())
	f.Add(fuzzSeedUDP4()[:EthHdrLen+IPv4HdrLen-1]) // truncated IP header
	bad := fuzzSeedUDP4()
	bad[EthHdrLen+10] ^= 0xff // corrupt checksum
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		// Hashing and Ethernet accessors must tolerate any length.
		_ = FlowHash5(data)
		if len(data) >= EthHdrLen {
			_ = EthType(data)
			dup := append([]byte(nil), data...)
			SwapEthAddrs(dup)
			SwapEthAddrs(dup)
			if !bytes.Equal(dup, data) {
				t.Fatal("SwapEthAddrs twice is not the identity")
			}
		}
		if len(data) < EthHdrLen {
			return
		}
		h := append([]byte(nil), data[EthHdrLen:]...)

		if err := CheckIPv4(h); err == nil {
			if IPv4Version(h) != 4 {
				t.Fatalf("CheckIPv4 accepted version %d", IPv4Version(h))
			}
			if ihl := IPv4IHL(h); ihl < IPv4HdrLen || ihl > len(h) {
				t.Fatalf("CheckIPv4 accepted IHL %d for %d header bytes", ihl, len(h))
			}
			// Reserialize: recomputing the checksum over a header that already
			// validates must keep it valid.
			SetIPv4Checksum(h)
			if err := CheckIPv4(h); err != nil {
				t.Fatalf("header invalid after SetIPv4Checksum: %v", err)
			}
			// The RFC 1624 incremental TTL update must preserve validity.
			ttl := IPv4TTL(h)
			if err := DecIPv4TTL(h); err == nil {
				if got := IPv4TTL(h); got != ttl-1 {
					t.Fatalf("DecIPv4TTL: ttl %d -> %d", ttl, got)
				}
				if err := CheckIPv4(h); err != nil {
					t.Fatalf("incremental checksum update broke the header: %v", err)
				}
			} else if ttl > 1 {
				t.Fatalf("DecIPv4TTL refused ttl %d: %v", ttl, err)
			}
		}

		if err := CheckIPv6(h); err == nil {
			if IPv6Version(h) != 6 {
				t.Fatalf("CheckIPv6 accepted version %d", IPv6Version(h))
			}
			a := IPv6DstAddr(h)
			if a.Mask(128) != a || a.Mask(0) != (IPv6Addr{}) {
				t.Fatalf("IPv6Addr.Mask endpoints wrong for %v", a)
			}
			var round [16]byte
			a.Put(round[:])
			if IPv6DstAddr(append(make([]byte, 24), round[:]...)) != a {
				t.Fatal("IPv6Addr Put/read round-trip changed the address")
			}
			hl := IPv6HopLimit(h)
			if err := DecIPv6HopLimit(h); err == nil {
				if got := IPv6HopLimit(h); got != hl-1 {
					t.Fatalf("DecIPv6HopLimit: %d -> %d", hl, got)
				}
			} else if hl > 1 {
				t.Fatalf("DecIPv6HopLimit refused hop limit %d: %v", hl, err)
			}
		}
	})
}

// FuzzBuildUDP4 checks the builder/accessor round-trip: every field written
// by BuildUDP4 must read back identically, the frame must validate, and
// re-serializing the checksum must be byte-stable.
func FuzzBuildUDP4(f *testing.F) {
	f.Add(uint32(0x0A000001), uint32(0xC0A80101), uint16(1234), uint16(53), 64)
	f.Add(uint32(0), uint32(0xFFFFFFFF), uint16(0), uint16(0xFFFF), 42)
	f.Add(uint32(0xFF000000), uint32(1), uint16(80), uint16(443), 1514)

	f.Fuzz(func(t *testing.T, src, dst uint32, sport, dport uint16, frameLen int) {
		const minLen = EthHdrLen + IPv4HdrLen + UDPHdrLen
		buf := make([]byte, 2048)
		if frameLen < minLen || frameLen > len(buf) {
			return // builder documents a panic outside this range
		}
		n := BuildUDP4(buf, [6]byte{2, 0, 0, 0, 0, 1}, [6]byte{2, 0, 0, 0, 0, 2},
			src, dst, sport, dport, frameLen)
		if n != frameLen {
			t.Fatalf("BuildUDP4 returned %d, want %d", n, frameLen)
		}
		frame := buf[:n]
		if EthType(frame) != EtherTypeIPv4 {
			t.Fatalf("EtherType = %#x", EthType(frame))
		}
		h := frame[EthHdrLen:]
		if err := CheckIPv4(h); err != nil {
			t.Fatalf("built frame does not validate: %v", err)
		}
		if IPv4Src(h) != src || IPv4Dst(h) != dst {
			t.Fatalf("addresses: %#x/%#x, want %#x/%#x", IPv4Src(h), IPv4Dst(h), src, dst)
		}
		if IPv4TotalLen(h) != frameLen-EthHdrLen || IPv4Proto(h) != ProtoUDP {
			t.Fatalf("total len %d proto %d", IPv4TotalLen(h), IPv4Proto(h))
		}
		u := h[IPv4HdrLen:]
		if UDPSrcPort(u) != sport || UDPDstPort(u) != dport {
			t.Fatalf("ports: %d/%d, want %d/%d", UDPSrcPort(u), UDPDstPort(u), sport, dport)
		}
		// Byte-stable reserialization: the builder stores the canonical
		// checksum, so recomputing it must not change a single byte.
		dup := append([]byte(nil), frame...)
		SetIPv4Checksum(dup[EthHdrLen:])
		if !bytes.Equal(dup, frame) {
			t.Fatal("SetIPv4Checksum changed a freshly built frame")
		}
	})
}
