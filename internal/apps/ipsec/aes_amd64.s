#include "textflag.h"

// ctrAESNI runs AES-128-CTR on AESENC/AESENCLAST. Whole groups of eight
// counter blocks go through the rounds together, so eight independent
// AESENC chains hide each other's latency; what is left (under 128 bytes)
// takes at most one group of four whole blocks and then one group of four
// keystream blocks for the last one to four blocks, the last maybe partial.
// A 64 B frame's 52 B payload is that last group alone.
//
// AX     round keys (16 bytes each, loaded into X8 one at a time)
// R8 R9  the next counter block, hi:lo, as two native 64-bit integers
// SI CX  the data still to XOR and its length
// X0-X7  counter blocks, then keystream blocks
// X9     a data block

// CTR builds counter block hi:lo+i in x: big-endian, hi in the low quadword.
#define CTR(i, x) \
	MOVQ   R9, R10; \
	MOVQ   R8, R11; \
	ADDQ   $i, R10; \
	ADCQ   $0, R11; \
	BSWAPQ R10; \
	BSWAPQ R11; \
	MOVQ   R11, x; \
	PINSRQ $1, R10, x

// ROUND4 and ROUND8 apply the round key at off(AX) to X0-X3 or X0-X7 with
// op: PXOR for the initial AddRoundKey, then AESENC, then AESENCLAST.
#define ROUND4(op, off) \
	MOVOU off(AX), X8; \
	op    X8, X0; \
	op    X8, X1; \
	op    X8, X2; \
	op    X8, X3

#define ROUND8(op, off) \
	ROUND4(op, off); \
	op X8, X4; \
	op X8, X5; \
	op X8, X6; \
	op X8, X7

#define ENCRYPT(ROUND) \
	ROUND(PXOR, 0); \
	ROUND(AESENC, 16); \
	ROUND(AESENC, 32); \
	ROUND(AESENC, 48); \
	ROUND(AESENC, 64); \
	ROUND(AESENC, 80); \
	ROUND(AESENC, 96); \
	ROUND(AESENC, 112); \
	ROUND(AESENC, 128); \
	ROUND(AESENC, 144); \
	ROUND(AESENCLAST, 160)

// XORBLOCK XORs keystream block x into the 16 data bytes at off(SI).
#define XORBLOCK(off, x) \
	MOVOU off(SI), X9; \
	PXOR  X9, x; \
	MOVOU x, off(SI)

// func ctrAESNI(rk *roundKeys, hi, lo uint64, data []byte)
TEXT ·ctrAESNI(SB), NOSPLIT, $0-48
	MOVQ rk+0(FP), AX
	MOVQ hi+8(FP), R8
	MOVQ lo+16(FP), R9
	MOVQ data_base+24(FP), SI
	MOVQ data_len+32(FP), CX

loop8:
	CMPQ CX, $128
	JB   group4
	CTR(0, X0)
	CTR(1, X1)
	CTR(2, X2)
	CTR(3, X3)
	CTR(4, X4)
	CTR(5, X5)
	CTR(6, X6)
	CTR(7, X7)
	ENCRYPT(ROUND8)
	XORBLOCK(0, X0)
	XORBLOCK(16, X1)
	XORBLOCK(32, X2)
	XORBLOCK(48, X3)
	XORBLOCK(64, X4)
	XORBLOCK(80, X5)
	XORBLOCK(96, X6)
	XORBLOCK(112, X7)
	ADDQ $8, R9
	ADCQ $0, R8
	ADDQ $128, SI
	SUBQ $128, CX
	JMP  loop8

group4:
	CMPQ CX, $64
	JB   tail
	CTR(0, X0)
	CTR(1, X1)
	CTR(2, X2)
	CTR(3, X3)
	ENCRYPT(ROUND4)
	XORBLOCK(0, X0)
	XORBLOCK(16, X1)
	XORBLOCK(32, X2)
	XORBLOCK(48, X3)
	ADDQ $4, R9
	ADCQ $0, R8
	ADDQ $64, SI
	SUBQ $64, CX

	// Under 64 bytes left: one group of four keystream blocks covers them.
	// Whole blocks take X0 and shift the next one down.
tail:
	TESTQ CX, CX
	JZ    done
	CTR(0, X0)
	CTR(1, X1)
	CTR(2, X2)
	CTR(3, X3)
	ENCRYPT(ROUND4)

tailblock:
	CMPQ CX, $16
	JB   partial
	XORBLOCK(0, X0)
	MOVO X1, X0
	MOVO X2, X1
	MOVO X3, X2
	ADDQ $16, SI
	SUBQ $16, CX
	JMP  tailblock

	// Under 16 bytes left: the front of X0, eight bytes then one at a time.
partial:
	TESTQ  CX, CX
	JZ     done
	MOVQ   X0, DX
	CMPQ   CX, $8
	JB     bytes
	XORQ   DX, (SI)
	PSRLDQ $8, X0
	MOVQ   X0, DX
	ADDQ   $8, SI
	SUBQ   $8, CX
	JZ     done

bytes:
	XORB DL, (SI)
	SHRQ $8, DX
	INCQ SI
	DECQ CX
	JNZ  bytes

done:
	RET
