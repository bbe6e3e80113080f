package ipsec

// aesNI reports whether the CPU has the AES instructions (CPUID leaf 1, ECX
// bit 25) and the SSSE3 and SSE4.1 levels shaNI also asks for (bits 9 and
// 19; ctrAESNI builds its counter blocks with SSE4.1's PINSRQ).
var aesNI = func() bool {
	_, _, ecx1, _ := cpuid(1, 0)
	return ecx1&(1<<25) != 0 && ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0
}()

// hostCTR is the CTR routine payloads are encrypted with: ctrAESNI where
// the CPU has it, ctrGeneric elsewhere.
func hostCTR() ctrFunc {
	if aesNI {
		return ctrAESNI
	}
	return ctrGeneric
}

// ctrAESNI is ctrFunc on AESENC and AESENCLAST, eight counter blocks at a
// time and the rest in groups of four. Only call it where aesNI holds.
//
//nba:hotpath
//go:noescape
func ctrAESNI(rk *roundKeys, hi, lo uint64, data []byte)
