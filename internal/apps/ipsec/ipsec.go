// Package ipsec implements the IPsec encryption gateway application (paper
// §4.1, Figure 8c): ESP tunnel-mode encapsulation, AES-128-CTR encryption
// and HMAC-SHA1 authentication, with per-flow security associations whose
// crypto contexts are initialised once at startup and reused — the paper's
// envelope-reuse trick that keeps context setup off the data path.
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

// SADB is the security association database, shared per socket.
type SADB struct {
	SAs []*SA
	// TunnelSrc/TunnelDst are the outer header addresses.
	TunnelSrc, TunnelDst uint32
}

// NewSADB creates n SAs with deterministic keys derived from seed.
func NewSADB(n int, seed uint64) (*SADB, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ipsec: SADB needs at least one SA, got %d", n)
	}
	r := rng.New(seed)
	db := &SADB{TunnelSrc: 0xC0A80001, TunnelDst: 0xC0A80002}
	for i := 0; i < n; i++ {
		sa := &SA{SPI: uint32(0x10000 + i)}
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

// Encrypt applies AES-128-CTR over the payload region in place.
func Encrypt(pkt *packet.Packet, db *SADB) error {
	sa, payload, err := saAndPayload(pkt, db)
	if err != nil {
		return err
	}
	iv := pkt.Buf()[IVOff : IVOff+IVLen]
	cipher.NewCTR(sa.block, iv).XORKeyStream(payload, payload)
	return nil
}

// Decrypt is Encrypt (CTR mode is symmetric); exported for clarity.
func Decrypt(pkt *packet.Packet, db *SADB) error { return Encrypt(pkt, db) }

// icv computes the HMAC-SHA1-96 ICV over ESP header + IV + ciphertext into
// the SA's own sum buffer (Sum appends, so no per-packet slice).
func (sa *SA) icv(pkt *packet.Packet) []byte {
	sa.mac.Reset()
	sa.mac.Write(pkt.Buf()[ESPOff : pkt.Length()-ICVLen])
	return sa.mac.Sum(sa.sum[:0])[:ICVLen]
}

// Authenticate computes the ICV and writes it to the frame's trailer.
func Authenticate(pkt *packet.Packet, db *SADB) error {
	sa, _, err := saAndPayload(pkt, db)
	if err != nil {
		return err
	}
	end := pkt.Length()
	copy(pkt.Buf()[end-ICVLen:end], sa.icv(pkt))
	return nil
}

// Verify recomputes the ICV and reports whether it matches.
func Verify(pkt *packet.Packet, db *SADB) (bool, error) {
	sa, _, err := saAndPayload(pkt, db)
	if err != nil {
		return false, err
	}
	end := pkt.Length()
	return hmac.Equal(sa.icv(pkt), pkt.Buf()[end-ICVLen:end]), nil
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

func saAndPayload(pkt *packet.Packet, db *SADB) (*SA, []byte, error) {
	end := pkt.Length()
	if end < PayloadOff+ICVLen {
		return nil, nil, errors.New("ipsec: frame not encapsulated")
	}
	idx := int(pkt.Anno[packet.AnnoFlowID])
	if idx < 0 || idx >= len(db.SAs) {
		return nil, nil, fmt.Errorf("ipsec: SA index %d out of range", idx)
	}
	return db.SAs[idx], pkt.Buf()[PayloadOff : end-ICVLen], nil
}
