package ipsec

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"nba/internal/rng"
)

// namedBlock is a compression function under test.
type namedBlock struct {
	name  string
	block blockFunc
}

// testBlocks are the compression functions held to the same answers: the
// generic block, and hostBlock's choice, which is blockSHANI on an amd64
// CPU with the SHA extensions (and the generic block again elsewhere).
func testBlocks() []namedBlock {
	return []namedBlock{{"generic", blockGeneric}, {"host", hostBlock()}}
}

// sha1Padded is msg with SHA-1's padding: a 1 bit, zeros, the 64-bit bit
// length, to a whole number of blocks.
func sha1Padded(msg []byte) []byte {
	p := append(append([]byte(nil), msg...), 0x80)
	for len(p)%sha1BlockSize != sha1BlockSize-8 {
		p = append(p, 0)
	}
	return binary.BigEndian.AppendUint64(p, uint64(len(msg))<<3)
}

// TestBlockKnownAnswers runs each block function directly over the FIPS 180
// examples, padded here: the empty message, "abc" (one block) and the
// 56-byte message whose padding spills into a second block.
func TestBlockKnownAnswers(t *testing.T) {
	cases := []struct{ msg, want string }{
		{"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
		{"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq", "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
	}
	for _, b := range testBlocks() {
		for _, c := range cases {
			h := sha1Init
			b.block(&h, sha1Padded([]byte(c.msg)))
			var sum []byte
			for _, w := range h {
				sum = binary.BigEndian.AppendUint32(sum, w)
			}
			if got := hex.EncodeToString(sum); got != c.want {
				t.Errorf("%s: SHA-1(%q) = %s, want %s", b.name, c.msg, got, c.want)
			}
		}
	}
}

// checkICV fails t unless the ICV of msg under key, computed on block, is
// the first ICVLen bytes of crypto/hmac over crypto/sha1.
func checkICV(t *testing.T, b namedBlock, key [20]byte, msg []byte) {
	t.Helper()
	sc := &scratch{block: b.block}
	sa := &SA{ipad: sc.padState(key[:], 0x36), opad: sc.padState(key[:], 0x5c)}
	mac := hmac.New(sha1.New, key[:])
	mac.Write(msg)
	if got, want := sc.icv(sa, msg), mac.Sum(nil)[:ICVLen]; !bytes.Equal(got, want) {
		t.Errorf("%s: key %x, %d B message: ICV %x, want %x", b.name, key, len(msg), got, want)
	}
}

// randomMessage returns n bytes drawn from seed.
func randomMessage(n int, seed uint64) []byte {
	r := rng.New(seed)
	msg := make([]byte, n)
	for i := range msg {
		msg[i] = byte(r.Uint64())
	}
	return msg
}

// TestICVMatchesHMACAtEveryLength checks both block functions against the
// stdlib HMAC at every message length up to a full frame, so each tail
// length and both padding shapes (one block, two) meet every block count.
func TestICVMatchesHMACAtEveryLength(t *testing.T) {
	key := [20]byte{0x0b, 0x0b, 0x0b, 0x0b, 19: 0xff}
	msg := randomMessage(1600, 5)
	for _, b := range testBlocks() {
		for n := 0; n <= len(msg); n++ {
			checkICV(t, b, key, msg[:n])
		}
	}
}

// FuzzICVMatchesHMAC is the differential test of the package's HMAC-SHA1-96:
// for any 20-byte key and message of up to 1600 bytes, both block functions
// give the stdlib's answer. The seeds sit at the padding edges of the inner
// hash (which also absorbs the 64-byte pad block).
func FuzzICVMatchesHMAC(f *testing.F) {
	key := []byte("0123456789abcdefghij")
	for _, n := range []uint16{0, 55, 56, 63, 64, 119, 120, 1600} {
		f.Add(key, n)
	}
	f.Fuzz(func(t *testing.T, key []byte, n uint16) {
		var k [20]byte
		copy(k[:], key)
		msg := randomMessage(int(n%1601), uint64(n)<<32|uint64(k[0]))
		for _, b := range testBlocks() {
			checkICV(t, b, k, msg)
		}
	})
}

// BenchmarkSHA1Block times one compression per block function.
func BenchmarkSHA1Block(b *testing.B) {
	p := randomMessage(sha1BlockSize, 1)
	for _, nb := range testBlocks() {
		b.Run(nb.name, func(b *testing.B) {
			h := sha1Init
			for b.Loop() {
				nb.block(&h, p)
			}
		})
	}
}
