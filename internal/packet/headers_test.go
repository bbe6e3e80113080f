package packet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

var (
	srcMAC = [6]byte{0x02, 0, 0, 0, 0, 0x01}
	dstMAC = [6]byte{0x02, 0, 0, 0, 0, 0x02}
)

func buildV4(t *testing.T, frameLen int) []byte {
	t.Helper()
	buf := make([]byte, MaxFrameLen)
	n := BuildUDP4(buf, srcMAC, dstMAC, 0x0A000001, 0xC0A80101, 1234, 53, frameLen)
	return buf[:n]
}

func TestBuildUDP4RoundTrip(t *testing.T) {
	f := buildV4(t, 64)
	if EthType(f) != EtherTypeIPv4 {
		t.Errorf("EtherType = %#x, want IPv4", EthType(f))
	}
	ip := f[EthHdrLen:]
	if err := CheckIPv4(ip); err != nil {
		t.Fatalf("CheckIPv4 on freshly built frame: %v", err)
	}
	if IPv4Src(ip) != 0x0A000001 || IPv4Dst(ip) != 0xC0A80101 {
		t.Errorf("addresses wrong: src=%#x dst=%#x", IPv4Src(ip), IPv4Dst(ip))
	}
	if IPv4Proto(ip) != ProtoUDP {
		t.Errorf("proto = %d, want UDP", IPv4Proto(ip))
	}
	if IPv4TotalLen(ip) != 50 {
		t.Errorf("total len = %d, want 50", IPv4TotalLen(ip))
	}
	u := ip[IPv4HdrLen:]
	if UDPSrcPort(u) != 1234 || UDPDstPort(u) != 53 {
		t.Errorf("ports = %d,%d, want 1234,53", UDPSrcPort(u), UDPDstPort(u))
	}
}

func TestCheckIPv4Rejections(t *testing.T) {
	f := buildV4(t, 64)
	ip := f[EthHdrLen:]

	// Corrupt the version.
	save := ip[0]
	ip[0] = 0x55
	if err := CheckIPv4(ip); err != ErrBadVersion {
		t.Errorf("bad version: err = %v, want ErrBadVersion", err)
	}
	ip[0] = save

	// Corrupt a byte without fixing the checksum.
	ip[16] ^= 0xff
	if err := CheckIPv4(ip); err != ErrBadChecksum {
		t.Errorf("corrupted dst: err = %v, want ErrBadChecksum", err)
	}
	ip[16] ^= 0xff

	// Truncated.
	if err := CheckIPv4(ip[:10]); err != ErrTruncated {
		t.Errorf("short header: err = %v, want ErrTruncated", err)
	}

	// Total length exceeding the frame.
	f2 := buildV4(t, 64)
	ip2 := f2[EthHdrLen:]
	ip2[2], ip2[3] = 0xff, 0xff
	SetIPv4Checksum(ip2)
	if err := CheckIPv4(ip2); err != ErrBadLength {
		t.Errorf("oversized total length: err = %v, want ErrBadLength", err)
	}
}

func TestDecIPv4TTLIncrementalChecksum(t *testing.T) {
	// Property: after DecIPv4TTL the checksum must still verify, for any TTL.
	f := func(ttl uint8, dst uint32) bool {
		if ttl < 2 {
			ttl += 2
		}
		buf := make([]byte, 128)
		BuildUDP4(buf, srcMAC, dstMAC, 1, dst, 9, 9, 64)
		ip := buf[EthHdrLen:]
		ip[8] = ttl
		SetIPv4Checksum(ip)
		if err := DecIPv4TTL(ip); err != nil {
			return false
		}
		return IPv4TTL(ip) == int(ttl)-1 && CheckIPv4(ip[:64-EthHdrLen]) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecIPv4TTLExpiry(t *testing.T) {
	f := buildV4(t, 64)
	ip := f[EthHdrLen:]
	ip[8] = 1
	SetIPv4Checksum(ip)
	if err := DecIPv4TTL(ip); err != ErrTTLExpired {
		t.Errorf("TTL=1: err = %v, want ErrTTLExpired", err)
	}
}

func TestBuildUDP6RoundTrip(t *testing.T) {
	buf := make([]byte, MaxFrameLen)
	src := IPv6Addr{Hi: 0x20010DB8 << 32, Lo: 1}
	dst := IPv6Addr{Hi: 0x20010DB8<<32 | 0xFFFF, Lo: 2}
	n := BuildUDP6(buf, srcMAC, dstMAC, src, dst, 1000, 2000, 128)
	f := buf[:n]
	if EthType(f) != EtherTypeIPv6 {
		t.Fatalf("EtherType = %#x, want IPv6", EthType(f))
	}
	ip := f[EthHdrLen:]
	if err := CheckIPv6(ip); err != nil {
		t.Fatalf("CheckIPv6: %v", err)
	}
	if got := IPv6DstAddr(ip); got != dst {
		t.Errorf("dst = %v, want %v", got, dst)
	}
	if IPv6HopLimit(ip) != 64 {
		t.Errorf("hop limit = %d, want 64", IPv6HopLimit(ip))
	}
	if err := DecIPv6HopLimit(ip); err != nil || IPv6HopLimit(ip) != 63 {
		t.Errorf("DecIPv6HopLimit: err=%v hl=%d", err, IPv6HopLimit(ip))
	}
}

func TestCheckIPv6Rejections(t *testing.T) {
	buf := make([]byte, MaxFrameLen)
	n := BuildUDP6(buf, srcMAC, dstMAC, IPv6Addr{}, IPv6Addr{Lo: 1}, 1, 2, 64)
	ip := buf[EthHdrLen:n]
	if err := CheckIPv6(ip[:20]); err != ErrTruncated {
		t.Errorf("short: err = %v, want ErrTruncated", err)
	}
	ip[0] = 0x40
	if err := CheckIPv6(ip); err != ErrBadVersion {
		t.Errorf("bad version: err = %v, want ErrBadVersion", err)
	}
	ip[0] = 0x60
	ip[4], ip[5] = 0xff, 0xff
	if err := CheckIPv6(ip); err != ErrBadLength {
		t.Errorf("oversized payload: err = %v, want ErrBadLength", err)
	}
}

func TestIPv6AddrMask(t *testing.T) {
	a := IPv6Addr{Hi: 0xFFFFFFFFFFFFFFFF, Lo: 0xFFFFFFFFFFFFFFFF}
	cases := []struct {
		plen int
		want IPv6Addr
	}{
		{0, IPv6Addr{}},
		{1, IPv6Addr{Hi: 0x8000000000000000}},
		{64, IPv6Addr{Hi: 0xFFFFFFFFFFFFFFFF}},
		{65, IPv6Addr{Hi: 0xFFFFFFFFFFFFFFFF, Lo: 0x8000000000000000}},
		{128, a},
	}
	for _, c := range cases {
		if got := a.Mask(c.plen); got != c.want {
			t.Errorf("Mask(%d) = %v, want %v", c.plen, got, c.want)
		}
	}
}

func TestInternetChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := InternetChecksum(b); got != 0x220d {
		t.Errorf("checksum = %#04x, want 0x220d", got)
	}
	// Odd-length input must be handled (pad with zero).
	if got := InternetChecksum([]byte{0xff}); got != ^uint16(0xff00) {
		t.Errorf("odd checksum = %#04x", got)
	}
}

func TestSwapEthAddrsAndBroadcast(t *testing.T) {
	f := buildV4(t, 64)
	SwapEthAddrs(f)
	if [6]byte(EthDst(f)) != srcMAC || [6]byte(EthSrc(f)) != dstMAC {
		t.Error("SwapEthAddrs did not exchange MACs")
	}
	// A broadcast destination becomes the source, as an echo would send it.
	bcast := [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	copy(f[0:6], bcast[:])
	SwapEthAddrs(f)
	if [6]byte(EthSrc(f)) != bcast || [6]byte(EthDst(f)) != dstMAC {
		t.Error("SwapEthAddrs did not move the broadcast address to the source")
	}
}

func TestFlowHashStabilityAndSpread(t *testing.T) {
	// Same 5-tuple must hash identically; different tuples should spread.
	buf := make([]byte, MaxFrameLen)
	BuildUDP4(buf, srcMAC, dstMAC, 10, 20, 30, 40, 64)
	h1 := FlowHash5(buf[:64])
	h2 := FlowHash5(buf[:64])
	if h1 != h2 {
		t.Error("hash not deterministic")
	}
	seen := map[uint32]bool{}
	for i := uint32(0); i < 1000; i++ {
		BuildUDP4(buf, srcMAC, dstMAC, 10+i, 20, 30, 40, 64)
		seen[FlowHash5(buf[:64])] = true
	}
	if len(seen) < 990 {
		t.Errorf("only %d distinct hashes for 1000 flows", len(seen))
	}
	// Queue assignment balance across 7 queues must be within 20%.
	counts := make([]int, 7)
	for i := uint32(0); i < 7000; i++ {
		BuildUDP4(buf, srcMAC, dstMAC, 10+i, 20+i*7, 30, 40, 64)
		counts[FlowHash5(buf[:64])%7]++
	}
	for q, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("queue %d got %d of 7000 packets; poor RSS spread", q, c)
		}
	}
}

func TestPacketBufferOps(t *testing.T) {
	var p Packet
	p.CopyFrom([]byte{1, 2, 3})
	if p.Length() != 3 || p.Data()[2] != 3 {
		t.Error("CopyFrom/Data mismatch")
	}
	p.SetLength(2)
	if len(p.Data()) != 2 {
		t.Error("SetLength did not resize")
	}
	p.Anno[AnnoOutPort] = 5
	p.Arrival = 99
	p.Reset()
	if p.Length() != 0 || p.Anno[AnnoOutPort] != 0 || p.Arrival != 0 {
		t.Error("Reset did not clear state")
	}
}

func TestPacketSetLengthBounds(t *testing.T) {
	var p Packet
	defer func() {
		if recover() == nil {
			t.Error("SetLength beyond capacity did not panic")
		}
	}()
	p.SetLength(MaxFrameLen + 1)
}

func BenchmarkCheckIPv4(b *testing.B) {
	buf := make([]byte, MaxFrameLen)
	BuildUDP4(buf, srcMAC, dstMAC, 1, 2, 3, 4, 64)
	ip := buf[EthHdrLen:64]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := CheckIPv4(ip); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFlowHash5(b *testing.B) {
	buf := make([]byte, MaxFrameLen)
	BuildUDP4(buf, srcMAC, dstMAC, 1, 2, 3, 4, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FlowHash5(buf[:64])
	}
}

func TestBuildTCP4(t *testing.T) {
	buf := make([]byte, MaxFrameLen)
	n := BuildTCP4(buf, srcMAC, dstMAC, 0x0A000001, 0xC0A80101, 40000, 80, 12345, TCPSyn|TCPAck, 128)
	f := buf[:n]
	ip := f[EthHdrLen:]
	if err := CheckIPv4(ip); err != nil {
		t.Fatalf("CheckIPv4: %v", err)
	}
	if IPv4Proto(ip) != ProtoTCP {
		t.Errorf("proto = %d, want TCP", IPv4Proto(ip))
	}
	tcp := ip[IPv4HdrLen:]
	if UDPSrcPort(tcp) != 40000 || UDPDstPort(tcp) != 80 {
		t.Error("TCP ports wrong (same offsets as UDP)")
	}
	if tcp[13] != TCPSyn|TCPAck {
		t.Errorf("flags = %#x", tcp[13])
	}
	// FlowHash5 covers TCP too (ports at the same offset).
	if FlowHash5(f) == 0 {
		t.Error("flow hash zero")
	}
}

// TestPutIPv4HeaderMatchesFieldWrites holds the word-composed header of the
// frame builders equal to the field-by-field form it replaced, checksum
// included, over random fields and the extreme ones.
func TestPutIPv4HeaderMatchesFieldWrites(t *testing.T) {
	fieldWrites := func(h []byte, totalLen int, proto uint8, src, dst uint32) {
		h[0], h[1] = 0x45, 0
		binary.BigEndian.PutUint16(h[2:4], uint16(totalLen))
		binary.BigEndian.PutUint16(h[4:6], 0)
		binary.BigEndian.PutUint16(h[6:8], 0)
		h[8], h[9] = 64, proto
		SetIPv4Src(h, src)
		SetIPv4Dst(h, dst)
		SetIPv4Checksum(h)
	}
	check := func(totalLen int, proto uint8, src, dst uint32) {
		t.Helper()
		got := bytes.Repeat([]byte{0xAA}, IPv4HdrLen)
		want := bytes.Repeat([]byte{0x55}, IPv4HdrLen)
		putIPv4Header(got, totalLen, proto, src, dst)
		fieldWrites(want, totalLen, proto, src, dst)
		if !bytes.Equal(got, want) {
			t.Fatalf("len %d proto %d %08x->%08x: header % x, want % x", totalLen, proto, src, dst, got, want)
		}
		if sum := InternetChecksum(got); sum != 0 {
			t.Fatalf("len %d: built header sums to %#04x, want 0", totalLen, sum)
		}
	}
	for _, v := range []uint32{0, 1, 0xffff, 0x10000, 0xffff0000, 0xffffffff} {
		for _, n := range []int{20, 28, 1500, 0xffff} {
			check(n, ProtoUDP, v, ^v)
			check(n, ProtoTCP, v, v)
		}
	}
	x := uint64(88172645463325252)
	for i := 0; i < 20000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		check(20+int(x>>48)%(0xffff-19), uint8(x>>40), uint32(x), uint32(x>>16)*2654435761)
	}
}
