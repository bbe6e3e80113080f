// Package ipsec implements the IPsec encryption gateway application (paper
// §4.1, Figure 8c): ESP tunnel-mode encapsulation, AES-128-CTR encryption
// and HMAC-SHA1 authentication, with per-flow security associations whose
// crypto contexts are initialised once at startup and reused — the paper's
// envelope-reuse trick that keeps context setup off the data path.
//
// What is reused: each SA's AES-128 round keys (the FIPS 197 key
// expansion, run once) and its keyed HMAC states (the SHA-1 chaining words
// after the inner and outer key pads, computed once), all values inside one
// slab of SAs, and, per calling context, the SHA-1 state and padding block
// an ICV runs on. So a frame of any size is encrypted and authenticated
// without allocating.
//
// Both primitives are the package's own, picked once, at package init,
// from the host CPU. AES-CTR runs on amd64 with the AES instructions (and
// SSSE3 and SSE4.1) as an assembly loop on AESENC, eight counter blocks at
// a time, and otherwise, and on every other GOARCH, as the FIPS 197 block
// in plain Go. The ICV is HMAC-SHA1-96: on amd64 with the SHA extensions
// (and SSSE3 and SSE4.1) an assembly routine on SHA1RNDS4, and otherwise
// the FIPS 180-4 block in plain Go. Each pair produces the same bytes, so
// the choice never shows in a frame; crypto/aes, crypto/cipher,
// crypto/sha1 and crypto/hmac are the tests' oracles only.
//
// Packets are really encrypted and really authenticated; the encrypt →
// decrypt → verify round-trip is exercised by tests.
package ipsec

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"

	"nba/internal/element"
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

// SA is one security association. Everything but Seq is read-only after
// NewSADB, so the event loop and the device executor share it.
type SA struct {
	SPI    uint32
	AESKey [16]byte
	MACKey [20]byte
	Seq    uint32
	// rk is AESKey's key schedule, expanded once: every payload's CTR
	// keystream is computed from it.
	rk roundKeys
	// ipad and opad are the SHA-1 chaining words after one block of MACKey
	// XOR the HMAC inner and outer pad: every ICV starts from them.
	ipad, opad [5]uint32
}

// spiBase is the SPI of SA 0; SA i has SPI spiBase+i.
const spiBase = 0x10000

// SADB is the security association database, shared per socket.
type SADB struct {
	SAs []*SA
	// TunnelSrc/TunnelDst are the outer header addresses.
	TunnelSrc, TunnelDst uint32

	// scratch is one working set per calling context (element.ProcContext's
	// Scratch): a socket's workers share one event loop, and the device
	// executor runs kernels beside it.
	scratch [element.ScratchSets]scratch
}

// scratch is what one calling context writes while it encrypts and signs.
// ctr is the CTR routine xorCTR runs (hostCTR's, outside tests). block is
// the SHA-1 compression icv runs (hostBlock's, outside tests), h the
// chaining words it runs on, pad the message tail with SHA-1's padding, and
// sum the inner digest, then the ICV. These are fields, not locals, because
// block is called through a func value, which would move stack arrays to
// the heap per packet.
type scratch struct {
	ctr   ctrFunc
	block blockFunc
	h     [5]uint32
	pad   [2 * sha1BlockSize]byte
	sum   [sha1Size]byte
}

// NewSADB creates n SAs with deterministic keys derived from seed.
func NewSADB(n int, seed uint64) (*SADB, error) {
	return newSADB(n, seed, hostCTR(), hostBlock())
}

// newSADB is NewSADB with its payloads encrypted by ctr and its ICVs
// computed on block.
func newSADB(n int, seed uint64, ctr ctrFunc, block blockFunc) (*SADB, error) {
	if n <= 0 {
		return nil, fmt.Errorf("ipsec: SADB needs at least one SA, got %d", n)
	}
	r := rng.New(seed)
	db := &SADB{TunnelSrc: 0xC0A80001, TunnelDst: 0xC0A80002, SAs: make([]*SA, n)}
	for i := range db.scratch {
		db.scratch[i].ctr = ctr
		db.scratch[i].block = block
	}
	sc := db.loop()
	sas := make([]SA, n)
	for i := range sas {
		sa := &sas[i]
		sa.SPI = uint32(spiBase + i)
		for j := 0; j < 16; j += 8 {
			binary.LittleEndian.PutUint64(sa.AESKey[j:], r.Uint64())
		}
		for j := 0; j < 16; j += 8 {
			binary.LittleEndian.PutUint64(sa.MACKey[j:], r.Uint64())
		}
		binary.LittleEndian.PutUint32(sa.MACKey[16:], r.Uint32())
		sa.rk = expandKey(&sa.AESKey)
		sa.ipad = sc.padState(sa.MACKey[:], 0x36)
		sa.opad = sc.padState(sa.MACKey[:], 0x5c)
		db.SAs[i] = sa
	}
	return db, nil
}

// padState returns SHA-1's chaining words after one block of key XOR pad
// (RFC 2104; the key is shorter than a block, so it is zero-padded). The
// block is built in sc, as a local array passed through sc.block would be
// allocated per call.
func (sc *scratch) padState(key []byte, pad byte) [5]uint32 {
	b := sc.pad[:sha1BlockSize]
	clear(b)
	copy(b, key)
	for i := range b {
		b[i] ^= pad
	}
	sc.h = sha1Init
	sc.block(&sc.h, b)
	return sc.h
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
// byte for byte what cipher.NewCTR on sa.AESKey and iv produces: the counter
// is the IV as one big-endian 128-bit number, incremented per block.
//
//nba:hotpath
func (sc *scratch) xorCTR(sa *SA, iv, data []byte) {
	sc.ctr(&sa.rk, binary.BigEndian.Uint64(iv[:8]), binary.BigEndian.Uint64(iv[8:16]), data)
}

// crypt applies AES-128-CTR over the payload region of the frame buf[:end].
//
//nba:hotpath
func (sc *scratch) crypt(sa *SA, buf []byte, end int) {
	sc.xorCTR(sa, buf[IVOff:PayloadOff], buf[PayloadOff:end-ICVLen])
}

// sign writes the ICV of the frame buf[:end] to its trailer.
//
//nba:hotpath
func (sc *scratch) sign(sa *SA, buf []byte, end int) {
	copy(buf[end-ICVLen:end], sc.icv(sa, buf[ESPOff:end-ICVLen]))
}

// icv computes the HMAC-SHA1-96 ICV over msg (ESP header + IV + ciphertext)
// into the scratch's sum buffer: SHA-1 over the outer pad and the SHA-1 of
// the inner pad and msg, each started from sa's pad words, so only msg's
// blocks, its padded tail and one outer block are compressed.
//
//nba:hotpath
func (sc *scratch) icv(sa *SA, msg []byte) []byte {
	full := len(msg) &^ (sha1BlockSize - 1)
	sc.h = sa.ipad
	if full > 0 {
		sc.block(&sc.h, msg[:full])
	}
	sc.finish(msg[full:], sha1BlockSize+len(msg))
	for i, w := range sc.h {
		binary.BigEndian.PutUint32(sc.sum[4*i:], w)
	}
	sc.h = sa.opad
	sc.finish(sc.sum[:], sha1BlockSize+sha1Size)
	for i := 0; i < ICVLen/4; i++ {
		binary.BigEndian.PutUint32(sc.sum[4*i:], sc.h[i])
	}
	return sc.sum[:ICVLen]
}

// finish compresses tail, the last len(tail) < sha1BlockSize bytes of an
// n-byte message, with SHA-1's padding (a 1 bit, zeros, the bit length) into
// sc.h: one block, or two where the length does not fit behind the tail.
//
//nba:hotpath
func (sc *scratch) finish(tail []byte, n int) {
	k := copy(sc.pad[:], tail)
	end := sha1BlockSize
	if k >= sha1BlockSize-8 {
		end = 2 * sha1BlockSize
	}
	b := sc.pad[:end]
	b[k] = 0x80
	clear(b[k+1 : end-8])
	binary.BigEndian.PutUint64(b[end-8:], uint64(n)<<3)
	sc.block(&sc.h, b)
}

// verify reports whether the ICV in the frame buf[:end]'s trailer is sa's.
func (sc *scratch) verify(sa *SA, buf []byte, end int) bool {
	return subtle.ConstantTimeCompare(sc.icv(sa, buf[ESPOff:end-ICVLen]), buf[end-ICVLen:end]) == 1
}

// loop is the event loop's scratch, which the per-packet functions below
// use.
func (db *SADB) loop() *scratch { return &db.scratch[element.ScratchLoop] }

// Encrypt applies AES-128-CTR over the payload region in place.
//
//nba:hotpath
func Encrypt(pkt *packet.Packet, db *SADB) error {
	sa, end, err := db.sendSA(pkt)
	if err != nil {
		return err
	}
	db.loop().crypt(sa, pkt.Buf(), end)
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
	db.loop().sign(sa, pkt.Buf(), end)
	return nil
}

// Verify recomputes the ICV of a received frame under the SA its ESP header
// names and reports whether it matches.
func Verify(pkt *packet.Packet, db *SADB) (bool, error) {
	sa, end, err := db.recvSA(pkt)
	if err != nil {
		return false, err
	}
	return db.loop().verify(sa, pkt.Buf(), end), nil
}

// Decrypt removes the AES-128-CTR encryption of a received frame in place
// (CTR mode is symmetric) under the SA its ESP header names.
func Decrypt(pkt *packet.Packet, db *SADB) error {
	sa, end, err := db.recvSA(pkt)
	if err != nil {
		return err
	}
	db.loop().crypt(sa, pkt.Buf(), end)
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
func (db *SADB) recvSA(pkt *packet.Packet) (*SA, int, error) {
	end := pkt.Length()
	if end < PayloadOff+ICVLen {
		return nil, 0, errNotESP
	}
	spi := binary.BigEndian.Uint32(pkt.Buf()[ESPOff:])
	_, sa, ok := db.BySPI(spi)
	if !ok {
		return nil, 0, fmt.Errorf("ipsec: unknown SPI %#x", spi)
	}
	return sa, end, nil
}
