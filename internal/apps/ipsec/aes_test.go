package ipsec

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"nba/internal/packet"
)

// namedCTR is a CTR routine under test.
type namedCTR struct {
	name string
	ctr  ctrFunc
}

// testCTRs are the CTR routines held to the same answers: the generic one,
// and hostCTR's choice, which is ctrAESNI on an amd64 CPU with the AES
// instructions (and the generic one again elsewhere).
func testCTRs() []namedCTR {
	return []namedCTR{{"generic", ctrGeneric}, {"host", hostCTR()}}
}

// unhex decodes a known-answer string.
func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAESKnownAnswers checks the key expansion against FIPS 197 Appendix A.1
// and the cipher against Appendices B and C.1, on the generic block and on
// each CTR routine directly: CTR over one zero block whose counter is the
// plaintext leaves the plaintext's ciphertext.
func TestAESKnownAnswers(t *testing.T) {
	var key [16]byte
	copy(key[:], unhex(t, "2b7e151628aed2a6abf7158809cf4f3c"))
	rk := expandKey(&key)
	if got := hex.EncodeToString(rk[1][:4]); got != "a0fafe17" {
		t.Errorf("A.1: w[4] = %s, want a0fafe17", got)
	}
	if got := hex.EncodeToString(rk[aesRounds][12:]); got != "b6630ca6" {
		t.Errorf("A.1: w[43] = %s, want b6630ca6", got)
	}

	cases := []struct{ name, key, plain, want string }{
		{"B", "2b7e151628aed2a6abf7158809cf4f3c", "3243f6a8885a308d313198a2e0370734", "3925841d02dc09fbdc118597196a0b32"},
		{"C.1", "000102030405060708090a0b0c0d0e0f", "00112233445566778899aabbccddeeff", "69c4e0d86a7b0430d8cdb78070b4c55a"},
	}
	for _, c := range cases {
		copy(key[:], unhex(t, c.key))
		rk := expandKey(&key)
		var plain, out [aesBlockSize]byte
		copy(plain[:], unhex(t, c.plain))
		encryptBlockGeneric(&rk, &out, &plain)
		if got := hex.EncodeToString(out[:]); got != c.want {
			t.Errorf("%s: generic block = %s, want %s", c.name, got, c.want)
		}
		for _, r := range testCTRs() {
			var ks [aesBlockSize]byte
			r.ctr(&rk, binary.BigEndian.Uint64(plain[:8]), binary.BigEndian.Uint64(plain[8:]), ks[:])
			if got := hex.EncodeToString(ks[:]); got != c.want {
				t.Errorf("%s: %s CTR keystream = %s, want %s", c.name, r.name, got, c.want)
			}
		}
	}
}

// checkCTR fails t unless xorCTR, on an SA that newSADB built from seed for
// the CTR routine c, writes in place what cipher.NewCTR writes for the SA's
// key, the iv and size bytes, and touches nothing outside them.
func checkCTR(t *testing.T, c namedCTR, seed uint64, iv [16]byte, size int) {
	t.Helper()
	db, err := newSADB(1, seed, c.ctr, blockGeneric)
	if err != nil {
		t.Fatal(err)
	}
	sa := db.SAs[0]
	block, err := aes.NewCipher(sa.AESKey[:])
	if err != nil {
		t.Fatal(err)
	}
	const guard = 16
	plain := randomMessage(guard+size+guard, seed^uint64(size)<<32^uint64(iv[15]))
	want := append([]byte(nil), plain...)
	cipher.NewCTR(block, iv[:]).XORKeyStream(want[guard:guard+size], want[guard:guard+size])
	got := append([]byte(nil), plain...)
	db.loop().xorCTR(sa, iv[:], got[guard:guard+size])
	if !bytes.Equal(got, want) {
		t.Errorf("%s: key %x iv %x len %d differs from cipher.NewCTR", c.name, sa.AESKey, iv, size)
	}
}

// carryIVs are IVs whose counter carries out of its low 32, 64 and all 128
// bits within the first blocks, beside the all-zero and all-one IVs.
func carryIVs() [][16]byte {
	var zero, ones, carry32, carry64, carry128 [16]byte
	copy(ones[:], bytes.Repeat([]byte{0xff}, 16))
	copy(carry32[:], append(bytes.Repeat([]byte{0x11}, 12), 0xff, 0xff, 0xff, 0xfe))
	copy(carry64[:], append(bytes.Repeat([]byte{0x22}, 8), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xfe))
	copy(carry128[:], append(bytes.Repeat([]byte{0xff}, 15), 0xfe))
	return [][16]byte{zero, ones, carry32, carry64, carry128}
}

// TestCTRMatchesStdlibAtEveryLength checks both CTR routines against the
// stdlib stream at every payload length that fits a frame buffer, so every
// split of a payload into groups of eight, one of four and a last partial
// group is met, with an IV that carries through all 128 bits.
func TestCTRMatchesStdlibAtEveryLength(t *testing.T) {
	iv := carryIVs()[4]
	for _, c := range testCTRs() {
		for n := 0; n <= packet.MaxFrameLen-PayloadOff; n++ {
			checkCTR(t, c, 3, iv, n)
		}
	}
}

// FuzzCTRMatchesStdlib is the differential test of the package's AES-CTR:
// for any SADB seed (so any key the constructor derives), IV and length,
// both CTR routines produce in place what cipher.NewCTR produces, and touch
// nothing outside the payload. The seeds sit at the block and group edges
// and at the payloads of 64 B and 1500 B frames.
func FuzzCTRMatchesStdlib(f *testing.F) {
	for _, iv := range carryIVs() {
		for _, n := range []uint16{0, 1, 15, 16, 17, 52, 64, 127, 128, 129, 244, 1012, 1488, 1600} {
			f.Add(uint64(7), iv[:], n)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, iv []byte, n uint16) {
		var v [16]byte
		copy(v[:], iv)
		for _, c := range testCTRs() {
			checkCTR(t, c, seed, v, int(n%1601))
		}
	})
}
