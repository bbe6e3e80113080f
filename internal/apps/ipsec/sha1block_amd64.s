#include "textflag.h"

// blockSHANI follows Intel's reference schedule for the SHA extensions:
// twenty groups of four rounds, each SHA1RNDS4 taking the next E from the
// other of two ping-ponged E registers (SHA1NEXTE derives it from the ABCD
// value saved before the previous group), while SHA1MSG1, PXOR and SHA1MSG2
// extend the message schedule in four rotating registers.
//
// X0     ABCD, word A in the top lane
// X1 X2  E0 and E1, the ping-ponged E (plus message words)
// X3-X6  MSG0-MSG3, four message words each, W[t] in the top lane
// X7     byte-reversal mask: big-endian words, first word on top
// X8 X9  ABCD and E0 at the start of the block, added back at its end

// ROUNDS4 is one group from the middle of the schedule: four rounds of
// function f on the words in m0 with the E in eA (saving ABCD in eB for
// the next group), finishing the schedule of m1 and advancing m2 and m3.
#define ROUNDS4(f, m0, m1, m2, m3, eA, eB) \
	SHA1NEXTE m0, eA; \
	MOVO      X0, eB; \
	SHA1MSG2  m0, m1; \
	SHA1RNDS4 $f, eA, X0; \
	SHA1MSG1  m0, m3; \
	PXOR      m0, m2

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	ANDQ $-64, DX
	JZ   done
	ADDQ SI, DX

	MOVOU  (DI), X0
	PSHUFD $0x1b, X0, X0
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1
	MOVOU  shufMask<>(SB), X7

loop:
	MOVO X0, X8
	MOVO X1, X9

	// Rounds 0-15 load the block, one group of four words at a time.
	MOVOU     (SI), X3
	PSHUFB    X7, X3
	PADDL     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	MOVOU     16(SI), X4
	PSHUFB    X7, X4
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X4, X3

	MOVOU     32(SI), X5
	PSHUFB    X7, X5
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0
	SHA1MSG1  X5, X4
	PXOR      X5, X3

	MOVOU  48(SI), X6
	PSHUFB X7, X6
	ROUNDS4(0, X6, X3, X4, X5, X2, X1)

	// Rounds 16-67.
	ROUNDS4(0, X3, X4, X5, X6, X1, X2)
	ROUNDS4(1, X4, X5, X6, X3, X2, X1)
	ROUNDS4(1, X5, X6, X3, X4, X1, X2)
	ROUNDS4(1, X6, X3, X4, X5, X2, X1)
	ROUNDS4(1, X3, X4, X5, X6, X1, X2)
	ROUNDS4(1, X4, X5, X6, X3, X2, X1)
	ROUNDS4(2, X5, X6, X3, X4, X1, X2)
	ROUNDS4(2, X6, X3, X4, X5, X2, X1)
	ROUNDS4(2, X3, X4, X5, X6, X1, X2)
	ROUNDS4(2, X4, X5, X6, X3, X2, X1)
	ROUNDS4(2, X5, X6, X3, X4, X1, X2)
	ROUNDS4(3, X6, X3, X4, X5, X2, X1)
	ROUNDS4(3, X3, X4, X5, X6, X1, X2)

	// Rounds 68-79 need no more new schedule words.
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1RNDS4 $3, X2, X0

	// E is rotl30 of the A four rounds back, plus the block's first E.
	SHA1NEXTE X9, X1
	PADDL     X8, X0

	ADDQ $64, SI
	CMPQ SI, DX
	JNE  loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

done:
	RET

// shufMask reverses all sixteen bytes of a register (PSHUFB).
DATA shufMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA shufMask<>+8(SB)/8, $0x0001020304050607
GLOBL shufMask<>(SB), RODATA|NOPTR, $16
