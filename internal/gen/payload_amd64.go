package gen

import "nba/internal/hostcpu"

// hostVec reports whether bursts may take fillVector: only on a CPU with
// AVX-512.
func hostVec() bool { return hostcpu.AVX512 }

// fillVector advances eight payload lanes in lockstep: for every lane k
// with p[k] != nil it writes the n bytes fillStream(b, x[k]) would write to
// b starting at p[k], and leaves x[k] as the state after them. n is a
// positive multiple of 8 and every live lane has at least n bytes from
// p[k]. A lane with p[k] == nil is empty: its bytes and x[k] are left alone.
//
// This is the AVX-512 form: the eight states in one register, x % 26
// reduced exactly in float64 (2^32 = 22 mod 26, so x % 26 is
// (hi*22 + lo) % 26, and that sum is below 2^37), each lane's eight bytes
// packed into one qword and written with one VPSCATTERQQ on 64-bit
// addresses. Only call it where hostcpu.AVX512 holds.
//
//nba:hotpath
//go:noescape
func fillVector(x *[vecWidth]uint64, p *[vecWidth]*byte, n int)
