package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Wire-format sizes and offsets.
const (
	EthHdrLen  = 14
	IPv4HdrLen = 20 // without options
	IPv6HdrLen = 40
	UDPHdrLen  = 8
	ESPHdrLen  = 8 // SPI + sequence number

	EtherTypeIPv4 = 0x0800
	EtherTypeIPv6 = 0x86DD

	ProtoUDP = 17
	ProtoESP = 50
)

// Errors returned by header validation.
var (
	ErrTruncated   = errors.New("packet: truncated header")
	ErrBadVersion  = errors.New("packet: bad IP version")
	ErrBadChecksum = errors.New("packet: bad IPv4 checksum")
	ErrBadLength   = errors.New("packet: inconsistent length fields")
	ErrTTLExpired  = errors.New("packet: TTL/hop-limit expired")
)

// --- Ethernet ---

// EthDst returns the destination MAC of frame b.
func EthDst(b []byte) []byte { return b[0:6] }

// EthSrc returns the source MAC of frame b.
func EthSrc(b []byte) []byte { return b[6:12] }

// EthType returns the EtherType of frame b.
func EthType(b []byte) uint16 { return binary.BigEndian.Uint16(b[12:14]) }

// SetEthType stores the EtherType.
func SetEthType(b []byte, t uint16) { binary.BigEndian.PutUint16(b[12:14], t) }

// SwapEthAddrs exchanges source and destination MACs (L2 echo behaviour).
func SwapEthAddrs(b []byte) {
	var tmp [6]byte
	copy(tmp[:], b[0:6])
	copy(b[0:6], b[6:12])
	copy(b[6:12], tmp[:])
}

// --- IPv4 ---

// IPv4 field accessors operate on the IPv4 header slice (frame[14:]).

func IPv4Version(h []byte) int      { return int(h[0] >> 4) }
func IPv4IHL(h []byte) int          { return int(h[0]&0x0f) * 4 }
func IPv4TotalLen(h []byte) int     { return int(binary.BigEndian.Uint16(h[2:4])) }
func IPv4TTL(h []byte) int          { return int(h[8]) }
func IPv4Proto(h []byte) int        { return int(h[9]) }
func IPv4Checksum(h []byte) uint16  { return binary.BigEndian.Uint16(h[10:12]) }
func IPv4Src(h []byte) uint32       { return binary.BigEndian.Uint32(h[12:16]) }
func IPv4Dst(h []byte) uint32       { return binary.BigEndian.Uint32(h[16:20]) }
func SetIPv4Src(h []byte, a uint32) { binary.BigEndian.PutUint32(h[12:16], a) }
func SetIPv4Dst(h []byte, a uint32) { binary.BigEndian.PutUint32(h[16:20], a) }

// CheckIPv4 validates the IPv4 header of h (which must start at the IP
// header) against the remaining frame length. It performs the checks of
// Click's CheckIPHeader element: version, header length, total length and
// checksum.
func CheckIPv4(h []byte) error {
	if len(h) < IPv4HdrLen {
		return ErrTruncated
	}
	if IPv4Version(h) != 4 {
		return ErrBadVersion
	}
	ihl := IPv4IHL(h)
	if ihl < IPv4HdrLen || ihl > len(h) {
		return ErrBadLength
	}
	if tl := IPv4TotalLen(h); tl < ihl || tl > len(h) {
		return ErrBadLength
	}
	if InternetChecksum(h[:ihl]) != 0 {
		return ErrBadChecksum
	}
	return nil
}

// DecIPv4TTL decrements the TTL and incrementally updates the checksum
// (RFC 1624). It returns ErrTTLExpired when the TTL reaches zero.
func DecIPv4TTL(h []byte) error {
	if h[8] <= 1 {
		return ErrTTLExpired
	}
	h[8]--
	// Incremental update: HC' = HC + 1 (in one's complement arithmetic),
	// since decrementing the TTL decreases the 16-bit word h[8:10] by 0x100.
	sum := uint32(binary.BigEndian.Uint16(h[10:12])) + 0x100
	sum = (sum & 0xffff) + (sum >> 16)
	binary.BigEndian.PutUint16(h[10:12], uint16(sum))
	return nil
}

// SetIPv4Checksum recomputes and stores the header checksum.
func SetIPv4Checksum(h []byte) {
	h[10], h[11] = 0, 0
	binary.BigEndian.PutUint16(h[10:12], InternetChecksum(h[:IPv4IHL(h)]))
}

// --- IPv6 ---

func IPv6Version(h []byte) int    { return int(h[0] >> 4) }
func IPv6PayloadLen(h []byte) int { return int(binary.BigEndian.Uint16(h[4:6])) }
func IPv6NextHeader(h []byte) int { return int(h[6]) }
func IPv6HopLimit(h []byte) int   { return int(h[7]) }

// IPv6Addr is a 128-bit address as two big-endian words, convenient for
// longest-prefix-match arithmetic.
type IPv6Addr struct{ Hi, Lo uint64 }

// IPv6DstAddr extracts the destination address of header h.
func IPv6DstAddr(h []byte) IPv6Addr {
	return IPv6Addr{
		Hi: binary.BigEndian.Uint64(h[24:32]),
		Lo: binary.BigEndian.Uint64(h[32:40]),
	}
}

// PutIPv6 stores a into the 16-byte slice b.
func (a IPv6Addr) Put(b []byte) {
	binary.BigEndian.PutUint64(b[0:8], a.Hi)
	binary.BigEndian.PutUint64(b[8:16], a.Lo)
}

// Mask returns the address masked to its leading plen bits.
func (a IPv6Addr) Mask(plen int) IPv6Addr {
	switch {
	case plen <= 0:
		return IPv6Addr{}
	case plen >= 128:
		return a
	case plen <= 64:
		return IPv6Addr{Hi: a.Hi &^ (1<<(64-plen) - 1)}
	default:
		return IPv6Addr{Hi: a.Hi, Lo: a.Lo &^ (1<<(128-plen) - 1)}
	}
}

func (a IPv6Addr) String() string { return fmt.Sprintf("%016x:%016x", a.Hi, a.Lo) }

// CheckIPv6 validates an IPv6 header.
func CheckIPv6(h []byte) error {
	if len(h) < IPv6HdrLen {
		return ErrTruncated
	}
	if IPv6Version(h) != 6 {
		return ErrBadVersion
	}
	if pl := IPv6PayloadLen(h); IPv6HdrLen+pl > len(h) {
		return ErrBadLength
	}
	return nil
}

// DecIPv6HopLimit decrements the hop limit; IPv6 has no header checksum.
func DecIPv6HopLimit(h []byte) error {
	if h[7] <= 1 {
		return ErrTTLExpired
	}
	h[7]--
	return nil
}

// --- UDP ---

func UDPSrcPort(h []byte) uint16 { return binary.BigEndian.Uint16(h[0:2]) }
func UDPDstPort(h []byte) uint16 { return binary.BigEndian.Uint16(h[2:4]) }

// --- Checksum ---

// InternetChecksum computes the RFC 1071 one's-complement checksum of b.
// Computing it over a header that contains its checksum field yields zero
// when the stored checksum is valid.
//
// It sums big-endian 64-bit words with end-around carry and folds at the
// end: 2^16 is 1 modulo 2^16-1, so every 16-bit column of a wider word
// weighs the same and the wide sum is congruent to the RFC's 16-bit one. A
// non-zero sum stays non-zero through every carry and fold, so the result is
// the same 16 bits for every input, 0xFFFF-versus-0 included.
func InternetChecksum(b []byte) uint16 {
	var sum uint64
	for len(b) >= 8 {
		var carry uint64
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(b), 0)
		sum += carry // a sum that wrapped is at most 2^64-2
		b = b[8:]
	}
	sum = sum>>32 + sum&0xffffffff // room for the tails
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint64(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// --- Frame builders (used by generators and tests) ---

// putIPv4Header writes the option-less IPv4 header the frame builders use
// (version 4, IHL 5, TOS, ID and fragment fields 0, TTL 64) with its
// checksum. It composes the header as three big-endian words and sums those:
// InternetChecksum's 8-byte loads over a header just written field by field
// would each wait for the narrow stores to retire.
func putIPv4Header(h []byte, totalLen int, proto uint8, src, dst uint32) {
	w0 := 0x4500<<48 | uint64(uint16(totalLen))<<32
	w1 := 64<<56 | uint64(proto)<<48 | uint64(src) // checksum field 0
	sum := w0>>32 + w0&0xffffffff + w1>>32 + w1&0xffffffff + uint64(dst)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	binary.BigEndian.PutUint64(h[0:8], w0)
	binary.BigEndian.PutUint64(h[8:16], w1|uint64(^uint16(sum))<<32)
	binary.BigEndian.PutUint32(h[16:20], dst)
}

// BuildUDP4 assembles an Ethernet+IPv4+UDP frame of exactly frameLen bytes
// into buf and returns frameLen. The payload is left as-is in buf (callers
// may pre-fill it). frameLen must be >= 42 (headers) and fit the buffer.
func BuildUDP4(buf []byte, srcMAC, dstMAC [6]byte, srcIP, dstIP uint32, sport, dport uint16, frameLen int) int {
	const minLen = EthHdrLen + IPv4HdrLen + UDPHdrLen
	if frameLen < minLen || frameLen > len(buf) {
		panic(fmt.Sprintf("packet: BuildUDP4 frameLen %d out of range [%d,%d]", frameLen, minLen, len(buf)))
	}
	copy(buf[0:6], dstMAC[:])
	copy(buf[6:12], srcMAC[:])
	SetEthType(buf, EtherTypeIPv4)

	h := buf[EthHdrLen:]
	ipLen := frameLen - EthHdrLen
	putIPv4Header(h, ipLen, ProtoUDP, srcIP, dstIP)

	u := h[IPv4HdrLen:]
	binary.BigEndian.PutUint16(u[0:2], sport)
	binary.BigEndian.PutUint16(u[2:4], dport)
	binary.BigEndian.PutUint16(u[4:6], uint16(ipLen-IPv4HdrLen))
	binary.BigEndian.PutUint16(u[6:8], 0) // UDP checksum optional over IPv4
	return frameLen
}

// BuildUDP6 assembles an Ethernet+IPv6+UDP frame of exactly frameLen bytes.
func BuildUDP6(buf []byte, srcMAC, dstMAC [6]byte, srcIP, dstIP IPv6Addr, sport, dport uint16, frameLen int) int {
	const minLen = EthHdrLen + IPv6HdrLen + UDPHdrLen
	if frameLen < minLen || frameLen > len(buf) {
		panic(fmt.Sprintf("packet: BuildUDP6 frameLen %d out of range [%d,%d]", frameLen, minLen, len(buf)))
	}
	copy(buf[0:6], dstMAC[:])
	copy(buf[6:12], srcMAC[:])
	SetEthType(buf, EtherTypeIPv6)

	h := buf[EthHdrLen:]
	h[0], h[1], h[2], h[3] = 0x60, 0, 0, 0
	binary.BigEndian.PutUint16(h[4:6], uint16(frameLen-EthHdrLen-IPv6HdrLen))
	h[6] = ProtoUDP
	h[7] = 64 // hop limit
	srcIP.Put(h[8:24])
	dstIP.Put(h[24:40])

	u := h[IPv6HdrLen:]
	binary.BigEndian.PutUint16(u[0:2], sport)
	binary.BigEndian.PutUint16(u[2:4], dport)
	binary.BigEndian.PutUint16(u[4:6], uint16(frameLen-EthHdrLen-IPv6HdrLen))
	binary.BigEndian.PutUint16(u[6:8], 0)
	return frameLen
}

// FlowHash5 computes a deterministic 5-tuple hash for RSS distribution and
// flow identification. It is a Toeplitz-flavoured mix (not the exact Intel
// key schedule, which is unnecessary for the simulation) over src/dst
// address, protocol and L4 ports.
func FlowHash5(frame []byte) uint32 {
	if len(frame) < EthHdrLen+1 {
		return 0
	}
	var h uint64 = 0x9E3779B97F4A7C15
	mix := func(v uint64) {
		h ^= v
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
	}
	switch EthType(frame) {
	case EtherTypeIPv4:
		ip := frame[EthHdrLen:]
		if len(ip) < IPv4HdrLen {
			return uint32(h)
		}
		mix(uint64(IPv4Src(ip)))
		mix(uint64(IPv4Dst(ip)))
		mix(uint64(IPv4Proto(ip)))
		ihl := IPv4IHL(ip)
		if len(ip) >= ihl+4 {
			mix(uint64(binary.BigEndian.Uint32(ip[ihl : ihl+4]))) // both ports
		}
	case EtherTypeIPv6:
		ip := frame[EthHdrLen:]
		if len(ip) < IPv6HdrLen {
			return uint32(h)
		}
		a := IPv6DstAddr(ip)
		mix(binary.BigEndian.Uint64(ip[8:16]))
		mix(binary.BigEndian.Uint64(ip[16:24]))
		mix(a.Hi)
		mix(a.Lo)
		mix(uint64(IPv6NextHeader(ip)))
		if len(ip) >= IPv6HdrLen+4 {
			mix(uint64(binary.BigEndian.Uint32(ip[IPv6HdrLen : IPv6HdrLen+4])))
		}
	default:
		for _, b := range frame[:EthHdrLen] {
			mix(uint64(b))
		}
	}
	return uint32(h ^ h>>32)
}

// TCPHdrLen is the minimal TCP header size (no options).
const TCPHdrLen = 20

// ProtoTCP is the IPv4 protocol number for TCP.
const ProtoTCP = 6

// BuildTCP4 assembles an Ethernet+IPv4+TCP frame of exactly frameLen bytes
// (no TCP options; flags as given). The payload region is left untouched.
func BuildTCP4(buf []byte, srcMAC, dstMAC [6]byte, srcIP, dstIP uint32, sport, dport uint16, seq uint32, flags byte, frameLen int) int {
	const minLen = EthHdrLen + IPv4HdrLen + TCPHdrLen
	if frameLen < minLen || frameLen > len(buf) {
		panic(fmt.Sprintf("packet: BuildTCP4 frameLen %d out of range [%d,%d]", frameLen, minLen, len(buf)))
	}
	copy(buf[0:6], dstMAC[:])
	copy(buf[6:12], srcMAC[:])
	SetEthType(buf, EtherTypeIPv4)

	h := buf[EthHdrLen:]
	ipLen := frameLen - EthHdrLen
	putIPv4Header(h, ipLen, ProtoTCP, srcIP, dstIP)

	tcp := h[IPv4HdrLen:]
	binary.BigEndian.PutUint16(tcp[0:2], sport)
	binary.BigEndian.PutUint16(tcp[2:4], dport)
	binary.BigEndian.PutUint32(tcp[4:8], seq)
	binary.BigEndian.PutUint32(tcp[8:12], 0) // ack
	tcp[12] = 5 << 4                         // data offset: 5 words
	tcp[13] = flags
	binary.BigEndian.PutUint16(tcp[14:16], 65535) // window
	binary.BigEndian.PutUint16(tcp[16:18], 0)     // checksum (not computed)
	binary.BigEndian.PutUint16(tcp[18:20], 0)     // urgent
	return frameLen
}

// TCP flag bits.
const (
	TCPFin = 1 << 0
	TCPSyn = 1 << 1
	TCPRst = 1 << 2
	TCPPsh = 1 << 3
	TCPAck = 1 << 4
)
