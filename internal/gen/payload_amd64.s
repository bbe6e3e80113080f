#include "textflag.h"

// fillVector runs the eight xorshift64 chains in one register. Per byte it
// takes one xorshift step and reduces the state mod 26 off the chain:
//
//   s = x - hi*(2^32-22) = hi*22 + lo            exact, below 2^37
//   q = floor(float64(s) * (1/26))               s/26 rounded down, or
//   r = s - q*26 (one FMA, exact)                one less: r is 0..26
//
// and shifts r into the lane's qword at the byte's place. The product is
// within 2^-20 of s/26, so q can only be one less where 26 divides s and the
// product lands just below the quotient; with 1/26 rounded up in float64 it
// never does, and the correction below keeps the bytes from hinging on that
// rounding. After eight bytes one byte-wise unsigned min maps the r = 26
// bytes to 0 (every other byte minus 26 wraps above itself), 'a' is added
// to every byte, and one VPSCATTERQQ writes each live lane's qword at its
// pointer + offset. Only the live lanes' states are stored back.
//
// The loop is bound by the xorshift chain, six dependent operations per
// byte: on the Sapphire Rapids box it was measured on, dropping the mod and
// the packing leaves its time unchanged (8 x 1008 B in ~5.5 us).
//
// AX x             BX p            CX n            DX offset
// Z0 states        Z1 lane pointers                K2 live lanes (p != nil)
// Z2 Z3 per-byte scratch           Z4 the step's packed residues
// Z20 2^32-22      Z22 1/26        Z23 26.0        Z25 26 in every byte
// Z26 'a' in every byte

// BYTE takes one xorshift step and leaves r in Z3.
#define BYTE \
	VPSLLQ       $13, Z0, Z2; \
	VPXORQ       Z2, Z0, Z0; \
	VPSRLQ       $7, Z0, Z2; \
	VPXORQ       Z2, Z0, Z0; \
	VPSLLQ       $17, Z0, Z2; \
	VPXORQ       Z2, Z0, Z0; \
	VPSRLQ       $32, Z0, Z2; \
	VPMULUDQ     Z20, Z2, Z2; \
	VPSUBQ       Z2, Z0, Z3; \
	VCVTQQ2PD    Z3, Z3; \
	VMULPD       Z22, Z3, Z2; \
	VRNDSCALEPD  $1, Z2, Z2; \
	VFNMADD231PD Z23, Z2, Z3; \
	VCVTTPD2QQ   Z3, Z3

// PACK shifts the residue in Z3 to byte shift/8 of each lane and adds it in.
#define PACK(shift) \
	BYTE; \
	VPSLLQ $shift, Z3, Z3; \
	VPORQ  Z3, Z4, Z4

// func fillVector(x *[vecWidth]uint64, p *[vecWidth]*byte, n int)
TEXT ·fillVector(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), AX
	MOVQ p+8(FP), BX
	MOVQ n+16(FP), CX
	VMOVDQU64 (AX), Z0
	VMOVDQU64 (BX), Z1
	VPTESTMQ  Z1, Z1, K2
	MOVQ $0xffffffea, DX
	VPBROADCASTQ DX, Z20
	MOVQ $0x3fa3b13b13b13b14, DX
	VPBROADCASTQ DX, Z22
	MOVQ $0x403a000000000000, DX
	VPBROADCASTQ DX, Z23
	MOVQ $0x1a1a1a1a1a1a1a1a, DX
	VPBROADCASTQ DX, Z25
	MOVQ $0x6161616161616161, DX
	VPBROADCASTQ DX, Z26
	XORQ DX, DX
	TESTQ CX, CX
	JLE   done

loop:
	BYTE
	VMOVDQA64 Z3, Z4
	PACK(8)
	PACK(16)
	PACK(24)
	PACK(32)
	PACK(40)
	PACK(48)
	PACK(56)
	VPSUBB      Z25, Z4, Z2
	VPMINUB     Z2, Z4, Z4
	VPADDB      Z26, Z4, Z4
	KMOVW       K2, K1
	VPSCATTERQQ Z4, K1, (DX)(Z1*1)
	ADDQ $8, DX
	CMPQ DX, CX
	JLT  loop
	VMOVDQU64 Z0, K2, (AX)

done:
	VZEROUPPER
	RET
