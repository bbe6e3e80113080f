package ipsec

// shaNI reports whether the CPU has the SHA extensions (CPUID leaf 7, EBX
// bit 29) and the SSSE3 and SSE4.1 instructions blockSHANI also uses
// (leaf 1, ECX bits 9 and 19).
var shaNI = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}()

// hostBlock is the compression function ICVs run on: blockSHANI where the
// CPU has it, blockGeneric elsewhere.
func hostBlock() blockFunc {
	if shaNI {
		return blockSHANI
	}
	return blockGeneric
}

// blockSHANI is blockFunc on the SHA extensions (SHA1RNDS4, SHA1NEXTE,
// SHA1MSG1, SHA1MSG2). Only call it where shaNI holds.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

// cpuid executes CPUID for leaf eaxArg, sub-leaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
