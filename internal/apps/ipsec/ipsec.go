// Package ipsec implements the IPsec encryption gateway application (paper
// §4.1, Figure 8c): ESP tunnel-mode encapsulation, AES-128-CTR encryption
// and HMAC-SHA1 authentication, with per-flow security associations whose
// crypto contexts are initialised once at startup and reused — the paper's
// envelope-reuse trick that keeps context setup off the data path.
//
// What is reused: each SA's expanded AES key (cipher.Block), its keyed HMAC
// state (Reset + Sum into the SA's own buffer) and, per SADB, the counter
// and keystream blocks of the CTR mode, so a payload of up to ctrShortMax
// bytes is encrypted and authenticated without allocating. Longer payloads
// still take a fresh stdlib cipher.NewCTR stream per packet: only that type
// reaches the 8-block AES-NI routine (see ctrShortMax).
//
// Packets are really encrypted and really authenticated; the encrypt →
// decrypt → verify round-trip is exercised by tests.
package ipsec

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"

	"nba/internal/packet"
	"nba/internal/rng"
)

// Frame geometry constants (tunnel mode over Ethernet).
const (
	OuterIPOff  = packet.EthHdrLen               // 14
	ESPOff      = OuterIPOff + packet.IPv4HdrLen // 34
	IVOff       = ESPOff + packet.ESPHdrLen      // 42
	IVLen       = 16
	PayloadOff  = IVOff + IVLen // 58
	ICVLen      = 12            // HMAC-SHA1-96
	trailerLen  = 2             // pad length + next header
	espOverhead = PayloadOff - packet.EthHdrLen + trailerLen + ICVLen
)

// SA is one security association.
type SA struct {
	SPI    uint32
	AESKey [16]byte
	MACKey [20]byte
	Seq    uint32
	block  cipher.Block // created once, reused (AES-NI envelope trick)
	mac    hash.Hash    // reused via Reset; single-threaded by design
	sum    [sha1.Size]byte
}

// spiBase is the SPI of SA 0; SA i has SPI spiBase+i.
const spiBase = 0x10000

// ctrShortMax is the longest payload xorCTR encrypts block by block on the
// SA's cipher.Block; a longer one is worth a stdlib stream object. A block
// costs ≈ 23 ns here, the stream object ≈ 180 ns plus 512 B of garbage, and
// the stream's 8-block routine is then ≈ 10 × faster per byte
// (BenchmarkESPKernel's ctr-blocks and ctr-stdlib rows). In an idle process
// the rows cross at 8–10 blocks; the constant is the first CAIDA bucket
// boundary above that, so 64, 128 and 256 B frames (90 % of the mix) leave
// nothing to collect.
const ctrShortMax = 256

// SADB is the security association database, shared per socket.
type SADB struct {
	SAs []*SA
	// TunnelSrc/TunnelDst are the outer header addresses.
	TunnelSrc, TunnelDst uint32

	// ctr and ks are xorBlocks' counter and keystream blocks. They are fields
	// because cipher.Block.Encrypt is an interface call, which would move
	// stack arrays to the heap per packet; one pair per SADB, not per SA,
	// because a socket's workers share one simulation thread.
	ctr, ks [aes.BlockSize]byte
}

// NewSADB creates n SAs with deterministic keys derived from seed.
func NewSADB(n int, seed uint64) (*SADB, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ipsec: SADB needs at least one SA, got %d", n)
	}
	r := rng.New(seed)
	db := &SADB{TunnelSrc: 0xC0A80001, TunnelDst: 0xC0A80002}
	for i := 0; i < n; i++ {
		sa := &SA{SPI: uint32(spiBase + i)}
		for j := 0; j < 16; j += 8 {
			binary.LittleEndian.PutUint64(sa.AESKey[j:], r.Uint64())
		}
		for j := 0; j < 16; j += 8 {
			binary.LittleEndian.PutUint64(sa.MACKey[j:], r.Uint64())
		}
		binary.LittleEndian.PutUint32(sa.MACKey[16:], r.Uint32())
		block, err := aes.NewCipher(sa.AESKey[:])
		if err != nil {
			return nil, fmt.Errorf("ipsec: creating AES context: %w", err)
		}
		sa.block = block
		sa.mac = hmac.New(sha1.New, sa.MACKey[:])
		db.SAs = append(db.SAs, sa)
	}
	return db, nil
}

// Select picks the SA for a flow hash.
func (db *SADB) Select(flowHash uint32) (int, *SA) {
	idx := int(flowHash) % len(db.SAs)
	if idx < 0 {
		idx += len(db.SAs)
	}
	return idx, db.SAs[idx]
}

// BySPI returns the index and SA that own spi, as a receiving gateway
// resolves them from the ESP header of a frame.
func (db *SADB) BySPI(spi uint32) (int, *SA, bool) {
	idx := int(spi) - spiBase
	if idx < 0 || idx >= len(db.SAs) {
		return 0, nil, false
	}
	return idx, db.SAs[idx], true
}

// Encap performs ESP tunnel encapsulation in place: the original IP packet
// (everything after the Ethernet header) becomes the encrypted payload of a
// new outer IPv4+ESP envelope. Returns the SA index used.
//
// After Encap the payload is still plaintext; Encrypt and Authenticate
// complete the transformation (they are separate elements — and separate
// GPU kernels — in the pipeline).
func Encap(pkt *packet.Packet, db *SADB) (int, error) {
	orig := pkt.Length()
	inner := orig - packet.EthHdrLen
	if inner <= 0 {
		return 0, errors.New("ipsec: frame too short to encapsulate")
	}
	pad := (4 - (inner+trailerLen)%4) % 4
	newLen := orig + espOverhead + pad
	if newLen > packet.MaxFrameLen {
		return 0, fmt.Errorf("ipsec: encapsulated frame %d exceeds buffer %d", newLen, packet.MaxFrameLen)
	}
	buf := pkt.Buf()

	flow := packet.FlowHash5(pkt.Data())
	idx, sa := db.Select(flow)
	sa.Seq++

	// Shift the inner packet to the payload region.
	copy(buf[PayloadOff:PayloadOff+inner], buf[packet.EthHdrLen:orig])
	// ESP trailer: padding bytes, pad length, next header (4 = IPv4).
	for i := 0; i < pad; i++ {
		buf[PayloadOff+inner+i] = byte(i + 1)
	}
	buf[PayloadOff+inner+pad] = byte(pad)
	buf[PayloadOff+inner+pad+1] = 4

	// ESP header.
	binary.BigEndian.PutUint32(buf[ESPOff:], sa.SPI)
	binary.BigEndian.PutUint32(buf[ESPOff+4:], sa.Seq)

	// Deterministic IV derived from (SPI, seq).
	var ivr rng.Rand
	ivr.Seed(uint64(sa.SPI)<<32 | uint64(sa.Seq))
	binary.LittleEndian.PutUint64(buf[IVOff:], ivr.Uint64())
	binary.LittleEndian.PutUint64(buf[IVOff+8:], ivr.Uint64())

	// Outer IPv4 header.
	h := buf[OuterIPOff:]
	h[0] = 0x45
	h[1] = 0
	binary.BigEndian.PutUint16(h[2:4], uint16(newLen-packet.EthHdrLen))
	binary.BigEndian.PutUint16(h[4:6], uint16(sa.Seq)) // ID
	binary.BigEndian.PutUint16(h[6:8], 0)
	h[8] = 64
	h[9] = packet.ProtoESP
	packet.SetIPv4Src(h, db.TunnelSrc)
	packet.SetIPv4Dst(h, db.TunnelDst)
	packet.SetIPv4Checksum(h)

	pkt.SetLength(newLen)
	pkt.Anno[packet.AnnoFlowID] = uint64(idx)
	return idx, nil
}

// xorCTR applies sa's AES-CTR keystream for the 16-byte iv to data in place,
// byte for byte what cipher.NewCTR(sa.block, iv).XORKeyStream(data, data)
// does. Which of the two ways it takes depends only on len(data).
//
//nba:hotpath
func (db *SADB) xorCTR(sa *SA, iv, data []byte) {
	if len(data) <= ctrShortMax {
		db.xorBlocks(sa, iv, data)
		return
	}
	//nbalint:allow hotalloc payloads over ctrShortMax: the stdlib stream's 8-block AES-NI path outruns its 512 B object
	cipher.NewCTR(sa.block, iv).XORKeyStream(data, data)
}

// xorBlocks is CTR mode one block at a time on the SA's own cipher.Block:
// the counter is the IV as one big-endian 128-bit number, incremented per
// block; a tail shorter than a block uses the front of its keystream block.
//
//nba:hotpath
func (db *SADB) xorBlocks(sa *SA, iv, data []byte) {
	hi, lo := binary.BigEndian.Uint64(iv[:8]), binary.BigEndian.Uint64(iv[8:16])
	ctr, ks := db.ctr[:], db.ks[:]
	for len(data) > 0 {
		binary.BigEndian.PutUint64(ctr[:8], hi)
		binary.BigEndian.PutUint64(ctr[8:], lo)
		sa.block.Encrypt(ks, ctr)
		if lo++; lo == 0 {
			hi++
		}
		if len(data) < aes.BlockSize {
			for i := range data {
				data[i] ^= ks[i]
			}
			return
		}
		binary.LittleEndian.PutUint64(data, binary.LittleEndian.Uint64(data)^binary.LittleEndian.Uint64(ks))
		binary.LittleEndian.PutUint64(data[8:], binary.LittleEndian.Uint64(data[8:])^binary.LittleEndian.Uint64(ks[8:]))
		data = data[aes.BlockSize:]
	}
}

// crypt applies AES-128-CTR over the payload region of the frame buf[:end].
//
//nba:hotpath
func (db *SADB) crypt(sa *SA, buf []byte, end int) {
	db.xorCTR(sa, buf[IVOff:PayloadOff], buf[PayloadOff:end-ICVLen])
}

// sign writes the ICV of the frame buf[:end] to its trailer.
//
//nba:hotpath
func (sa *SA) sign(buf []byte, end int) {
	copy(buf[end-ICVLen:end], sa.icv(buf[ESPOff:end-ICVLen]))
}

// icv computes the HMAC-SHA1-96 ICV over msg (ESP header + IV + ciphertext)
// into the SA's own sum buffer (Sum appends, so no per-packet slice).
//
//nba:hotpath
func (sa *SA) icv(msg []byte) []byte {
	sa.mac.Reset()
	sa.mac.Write(msg)
	return sa.mac.Sum(sa.sum[:0])[:ICVLen]
}

// Encrypt applies AES-128-CTR over the payload region in place.
//
//nba:hotpath
func Encrypt(pkt *packet.Packet, db *SADB) error {
	sa, end, err := db.sendSA(pkt)
	if err != nil {
		return err
	}
	db.crypt(sa, pkt.Buf(), end)
	return nil
}

// Authenticate computes the ICV and writes it to the frame's trailer.
//
//nba:hotpath
func Authenticate(pkt *packet.Packet, db *SADB) error {
	sa, end, err := db.sendSA(pkt)
	if err != nil {
		return err
	}
	sa.sign(pkt.Buf(), end)
	return nil
}

// Verify recomputes the ICV of a received frame under the SA its ESP header
// names and reports whether it matches.
func Verify(pkt *packet.Packet, db *SADB) (bool, error) {
	_, sa, end, err := db.recvSA(pkt)
	if err != nil {
		return false, err
	}
	return sa.verify(pkt.Buf(), end), nil
}

func (sa *SA) verify(buf []byte, end int) bool {
	return hmac.Equal(sa.icv(buf[ESPOff:end-ICVLen]), buf[end-ICVLen:end])
}

// Decrypt removes the AES-128-CTR encryption of a received frame in place
// (CTR mode is symmetric) under the SA its ESP header names.
func Decrypt(pkt *packet.Packet, db *SADB) error {
	_, sa, end, err := db.recvSA(pkt)
	if err != nil {
		return err
	}
	db.crypt(sa, pkt.Buf(), end)
	return nil
}

// Decap reverses Encap on a decrypted frame, restoring the inner packet
// behind the Ethernet header. The ICV must have been verified first.
func Decap(pkt *packet.Packet) error {
	end := pkt.Length()
	if end < PayloadOff+trailerLen+ICVLen {
		return errors.New("ipsec: frame too short to decapsulate")
	}
	buf := pkt.Buf()
	padLen := int(buf[end-ICVLen-2])
	next := buf[end-ICVLen-1]
	if next != 4 {
		return fmt.Errorf("ipsec: unexpected next header %d", next)
	}
	inner := end - ICVLen - trailerLen - padLen - PayloadOff
	if inner <= 0 {
		return errors.New("ipsec: inner packet length underflow")
	}
	copy(buf[packet.EthHdrLen:packet.EthHdrLen+inner], buf[PayloadOff:PayloadOff+inner])
	pkt.SetLength(packet.EthHdrLen + inner)
	return nil
}

var errNotESP = errors.New("ipsec: frame not encapsulated")

// sendSA checks an encapsulated frame's geometry and returns its end offset
// and the SA that Encap chose for it (the flow annotation).
func (db *SADB) sendSA(pkt *packet.Packet) (*SA, int, error) {
	end := pkt.Length()
	if end < PayloadOff+ICVLen {
		return nil, 0, errNotESP
	}
	idx := pkt.Anno[packet.AnnoFlowID]
	if idx >= uint64(len(db.SAs)) {
		return nil, 0, fmt.Errorf("ipsec: SA index %d out of range", idx)
	}
	return db.SAs[idx], end, nil
}

// recvSA is sendSA for the receiving gateway, which has only the bytes: the
// SA is the one the frame's SPI names.
func (db *SADB) recvSA(pkt *packet.Packet) (int, *SA, int, error) {
	end := pkt.Length()
	if end < PayloadOff+ICVLen {
		return 0, nil, 0, errNotESP
	}
	spi := binary.BigEndian.Uint32(pkt.Buf()[ESPOff:])
	idx, sa, ok := db.BySPI(spi)
	if !ok {
		return 0, nil, 0, fmt.Errorf("ipsec: unknown SPI %#x", spi)
	}
	return idx, sa, end, nil
}
