package ipsec

import "nba/internal/hostcpu"

// hostCTR is the CTR routine payloads are encrypted with: ctrAESNI where
// the CPU has it, ctrGeneric elsewhere.
func hostCTR() ctrFunc {
	if hostcpu.AESNI {
		return ctrAESNI
	}
	return ctrGeneric
}

// ctrAESNI is ctrFunc on AESENC and AESENCLAST, eight counter blocks at a
// time and the rest in groups of four. Only call it where hostcpu.AESNI
// holds (it builds its counter blocks with SSE4.1's PINSRQ).
//
//nba:hotpath
//go:noescape
func ctrAESNI(rk *roundKeys, hi, lo uint64, data []byte)
