package hostcpu

func init() {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	sse := ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0
	AESNI = sse && ecx1&(1<<25) != 0
	SHANI = sse && ebx7&(1<<29) != 0
	const avx512 = 1<<16 | 1<<17 | 1<<30 | 1<<31 // F, DQ, BW, VL
	// XCR0: SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state.
	const zmmState = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
	if ebx7&avx512 == avx512 && ecx1&(1<<27) != 0 {
		xcr0, _ := xgetbv()
		AVX512 = xcr0&zmmState == zmmState
	}
}

// cpuid executes CPUID for leaf eaxArg, sub-leaf ecxArg.
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0. Only call it where OSXSAVE is
// set.
func xgetbv() (eax, edx uint32)
