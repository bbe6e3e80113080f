package ipsec

import (
	"encoding/binary"
	"math/bits"
)

// AES-128 geometry (FIPS 197 §5).
const (
	aesBlockSize = 16
	aesRounds    = 10
)

// roundKeys is an AES-128 key schedule: FIPS 197's eleven round keys, each
// the 16 bytes of its four words in big-endian order, which is the order
// AESENC takes a round key in and the generic block reads its words from.
type roundKeys [aesRounds + 1][aesBlockSize]byte

// ctrFunc XORs data in place with the AES-CTR keystream of rk: the counter
// block is the 128-bit big-endian number hi:lo, incremented (mod 2^128) per
// block, and a final partial block uses the front of its keystream block.
// It reads nothing but its arguments and writes nothing but data, so any
// number of goroutines may run one at once on their own data.
type ctrFunc func(rk *roundKeys, hi, lo uint64, data []byte)

// xtime multiplies b by x in GF(2^8) (FIPS 197 §4.2.1).
func xtime(b byte) byte { return b<<1 ^ (b>>7)*0x1b }

// sbox is FIPS 197's S-box (§5.1.1): the multiplicative inverse in GF(2^8)
// followed by the affine transform. p walks the field's non-zero elements
// as powers of 3 while q walks their inverses as powers of 3⁻¹.
var sbox = func() (s [256]byte) {
	p, q := byte(1), byte(1)
	for {
		p ^= xtime(p)
		q ^= q << 1
		q ^= q << 2
		q ^= q << 4
		if q&0x80 != 0 {
			q ^= 0x09
		}
		s[p] = q ^ bits.RotateLeft8(q, 1) ^ bits.RotateLeft8(q, 2) ^ bits.RotateLeft8(q, 3) ^ bits.RotateLeft8(q, 4) ^ 0x63
		if p == 1 {
			break
		}
	}
	s[0] = 0x63
	return s
}()

// te is the generic block's round table: te[x] is the column MixColumns
// makes of S(x) in a column's first row, so one round's output column is
// four table words (rotated by the input's row) XOR the round key.
var te = func() (t [256]uint32) {
	for x, s := range sbox {
		t[x] = uint32(xtime(s))<<24 | uint32(s)<<16 | uint32(s)<<8 | uint32(xtime(s)^s)
	}
	return t
}()

// expandKey is FIPS 197's key expansion (§5.2) of an AES-128 key.
func expandKey(key *[16]byte) (rk roundKeys) {
	var w [4 * (aesRounds + 1)]uint32
	for i := 0; i < 4; i++ {
		w[i] = binary.BigEndian.Uint32(key[4*i:])
	}
	rcon := byte(1)
	for i := 4; i < len(w); i++ {
		t := w[i-1]
		if i%4 == 0 {
			t = bits.RotateLeft32(t, 8) // RotWord
			t = uint32(sbox[t>>24])<<24 | uint32(sbox[t>>16&0xff])<<16 | uint32(sbox[t>>8&0xff])<<8 | uint32(sbox[t&0xff])
			t ^= uint32(rcon) << 24
			rcon = xtime(rcon)
		}
		w[i] = w[i-4] ^ t
	}
	for i, x := range w {
		binary.BigEndian.PutUint32(rk[i/4][4*(i%4):], x)
	}
	return rk
}

// ctrGeneric is ctrFunc one block at a time on encryptBlockGeneric: the one
// every GOARCH has, and the one hostCTR picks where the CPU has no AES
// instructions.
//
//nba:hotpath
func ctrGeneric(rk *roundKeys, hi, lo uint64, data []byte) {
	var ctr, ks [aesBlockSize]byte
	for len(data) > 0 {
		binary.BigEndian.PutUint64(ctr[:8], hi)
		binary.BigEndian.PutUint64(ctr[8:], lo)
		encryptBlockGeneric(rk, &ks, &ctr)
		if lo++; lo == 0 {
			hi++
		}
		if len(data) < aesBlockSize {
			for i := range data {
				data[i] ^= ks[i]
			}
			return
		}
		binary.LittleEndian.PutUint64(data, binary.LittleEndian.Uint64(data)^binary.LittleEndian.Uint64(ks[:]))
		binary.LittleEndian.PutUint64(data[8:], binary.LittleEndian.Uint64(data[8:])^binary.LittleEndian.Uint64(ks[8:]))
		data = data[aesBlockSize:]
	}
}

// encryptBlockGeneric is the FIPS 197 cipher (§5.1) in plain Go, on the
// state as four big-endian column words: nine table rounds (SubBytes,
// ShiftRows and MixColumns at once), then SubBytes and ShiftRows alone.
//
//nba:hotpath
func encryptBlockGeneric(rk *roundKeys, dst, src *[aesBlockSize]byte) {
	s0 := binary.BigEndian.Uint32(src[0:]) ^ binary.BigEndian.Uint32(rk[0][0:])
	s1 := binary.BigEndian.Uint32(src[4:]) ^ binary.BigEndian.Uint32(rk[0][4:])
	s2 := binary.BigEndian.Uint32(src[8:]) ^ binary.BigEndian.Uint32(rk[0][8:])
	s3 := binary.BigEndian.Uint32(src[12:]) ^ binary.BigEndian.Uint32(rk[0][12:])
	for r := 1; r < aesRounds; r++ {
		k := &rk[r]
		s0, s1, s2, s3 = mixColumn(s0, s1, s2, s3)^binary.BigEndian.Uint32(k[0:]),
			mixColumn(s1, s2, s3, s0)^binary.BigEndian.Uint32(k[4:]),
			mixColumn(s2, s3, s0, s1)^binary.BigEndian.Uint32(k[8:]),
			mixColumn(s3, s0, s1, s2)^binary.BigEndian.Uint32(k[12:])
	}
	k := &rk[aesRounds]
	binary.BigEndian.PutUint32(dst[0:], subColumn(s0, s1, s2, s3)^binary.BigEndian.Uint32(k[0:]))
	binary.BigEndian.PutUint32(dst[4:], subColumn(s1, s2, s3, s0)^binary.BigEndian.Uint32(k[4:]))
	binary.BigEndian.PutUint32(dst[8:], subColumn(s2, s3, s0, s1)^binary.BigEndian.Uint32(k[8:]))
	binary.BigEndian.PutUint32(dst[12:], subColumn(s3, s0, s1, s2)^binary.BigEndian.Uint32(k[12:]))
}

// mixColumn is one round's output column before its round key: row i comes
// from column a, b, c or d (ShiftRows), through the S-box and MixColumns.
func mixColumn(a, b, c, d uint32) uint32 {
	return te[a>>24] ^ bits.RotateLeft32(te[b>>16&0xff], -8) ^
		bits.RotateLeft32(te[c>>8&0xff], -16) ^ bits.RotateLeft32(te[d&0xff], -24)
}

// subColumn is mixColumn for the last round, which has no MixColumns.
func subColumn(a, b, c, d uint32) uint32 {
	return uint32(sbox[a>>24])<<24 | uint32(sbox[b>>16&0xff])<<16 | uint32(sbox[c>>8&0xff])<<8 | uint32(sbox[d&0xff])
}
