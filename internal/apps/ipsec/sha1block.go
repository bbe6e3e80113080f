package ipsec

import (
	"encoding/binary"
	"math/bits"
)

// SHA-1 geometry (FIPS 180-4 §6.1).
const (
	sha1Size      = 20 // digest bytes
	sha1BlockSize = 64 // message block bytes
)

// sha1Init is H(0), the chaining words every SHA-1 starts from.
var sha1Init = [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}

// blockFunc is a SHA-1 compression function: it folds every whole
// sha1BlockSize block of p (len(p) is a multiple of it) into the chaining
// words h. It reads nothing but its arguments and writes nothing but h, so
// any number of goroutines may run one at once on their own h.
type blockFunc func(h *[5]uint32, p []byte)

// blockGeneric is the FIPS 180-4 compression in plain Go: the one every
// GOARCH has, and the one hostBlock picks where the CPU has no SHA
// extensions.
func blockGeneric(h *[5]uint32, p []byte) {
	var w [16]uint32
	for ; len(p) >= sha1BlockSize; p = p[sha1BlockSize:] {
		for i := range w {
			w[i] = binary.BigEndian.Uint32(p[4*i:])
		}
		a, b, c, d, e := h[0], h[1], h[2], h[3], h[4]
		t := 0
		for ; t < 20; t++ {
			a, b, c, d, e = bits.RotateLeft32(a, 5)+(b&c|^b&d)+e+0x5A827999+schedule(&w, t), a, bits.RotateLeft32(b, 30), c, d
		}
		for ; t < 40; t++ {
			a, b, c, d, e = bits.RotateLeft32(a, 5)+(b^c^d)+e+0x6ED9EBA1+schedule(&w, t), a, bits.RotateLeft32(b, 30), c, d
		}
		for ; t < 60; t++ {
			a, b, c, d, e = bits.RotateLeft32(a, 5)+(b&c|b&d|c&d)+e+0x8F1BBCDC+schedule(&w, t), a, bits.RotateLeft32(b, 30), c, d
		}
		for ; t < 80; t++ {
			a, b, c, d, e = bits.RotateLeft32(a, 5)+(b^c^d)+e+0xCA62C1D6+schedule(&w, t), a, bits.RotateLeft32(b, 30), c, d
		}
		h[0] += a
		h[1] += b
		h[2] += c
		h[3] += d
		h[4] += e
	}
}

// schedule returns W[t] of the message schedule, which w holds as a window
// of the last 16 words: from t = 16 on, W[t] is computed into the slot of
// W[t-16].
func schedule(w *[16]uint32, t int) uint32 {
	if t >= 16 {
		w[t&15] = bits.RotateLeft32(w[(t-3)&15]^w[(t-8)&15]^w[(t-14)&15]^w[t&15], 1)
	}
	return w[t&15]
}
