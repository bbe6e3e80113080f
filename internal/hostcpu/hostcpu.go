// Package hostcpu reports the instruction-set extensions of the host CPU
// that the packet kernels pick their routines by. It is read once, at
// package init: every routine a kernel may pick has a plain-Go twin, and
// the tests hold each pair to the same answers, so the probe chooses speed,
// never results. Off amd64 every flag is false.
package hostcpu

var (
	// AESNI: the AES instructions (CPUID leaf 1, ECX bit 25), with the
	// SSSE3 and SSE4.1 levels the AES-CTR routine also uses (bits 9 and 19).
	AESNI bool
	// SHANI: the SHA extensions (leaf 7, EBX bit 29), with SSSE3 and SSE4.1.
	SHANI bool
	// AVX512: AVX-512 F, DQ, BW and VL (leaf 7, EBX bits 16, 17, 30 and 31)
	// on an OS that saves the opmask and ZMM state: OSXSAVE (leaf 1, ECX
	// bit 27) and XCR0 bits 1, 2, 5, 6 and 7.
	AVX512 bool
)
