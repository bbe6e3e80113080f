#include "go_asm.h"
#include "textflag.h"

// scanGather keeps all four groups in registers and interleaves them byte
// by byte, so four independent gathers are in flight at every step. A group
// is active while the step's offset is below its lockstep length; its
// gathers run under its active mask (K4-K7), so an inactive group loads
// nothing and keeps its entries.
//
// SI next          DI first        BX gs           DX end
// R8 payload offset of the step    R10 0xffff
// group g: Z(4g), Z(4g+1) lane pointers 0-7 and 8-15; Z(4g+2) the lanes'
//          four payload bytes; Z(4g+3) upper data half, then indices;
//          Z(16+g) entries; K(4+g) active lanes
// Z27-Z29 fold scratch
// Z30 0xffffff00 in every lane: the state part of an entry
// Z31 1 in every lane: the output flag

#define SZ gatherGroup__size

// LOAD reads group g's lane pointers and entries.
#define LOAD(g, p0, p1, e) \
	VMOVDQU64 (g*SZ+gatherGroup_p)(BX), p0; \
	VMOVDQU64 (g*SZ+gatherGroup_p+64)(BX), p1; \
	VMOVDQU32 (g*SZ+gatherGroup_e)(BX), e

// ACTIVE sets mask k to every lane if the step's offset is below group g's
// lockstep length, to none otherwise.
#define ACTIVE(g, k) \
	XORL    AX, AX; \
	CMPQ    R8, (g*SZ+gatherGroup_n)(BX); \
	CMOVQLT R10, AX; \
	KMOVW   AX, k

// DATA gathers the next four payload bytes of each active lane of a group.
#define DATA(k, p0, p1, dy, dz, ty) \
	KMOVW        k, K1; \
	KMOVW        k, K2; \
	VPGATHERQD   (R8)(p0*1), K1, dy; \
	VPGATHERQD   (R8)(p1*1), K2, ty; \
	VINSERTI64X4 $1, ty, dz, dz

// ADV moves the entries e of a group's active lanes on by byte shift/8 of
// their data dwords: index = the state part of the entry | the byte.
#define ADV(shift, k, d, e, i) \
	VPSRLD     $shift, d, i; \
	VPTERNLOGD $0xd8, Z30, e, i; \
	KMOVW      k, K1; \
	VPGATHERDD (SI)(i*4), K1, e

// ADV4 is one byte step of all four groups.
#define ADV4(shift) \
	ADV(shift, K4, Z2, Z16, Z3); \
	ADV(shift, K5, Z6, Z17, Z7); \
	ADV(shift, K6, Z10, Z18, Z11); \
	ADV(shift, K7, Z14, Z19, Z15)

// FLAGS sets K1 to the active lanes of any group whose entry is flagged,
// and the flags for JNZ.
#define FLAGS \
	VPTESTMD Z31, Z16, K4, K1; \
	VPTESTMD Z31, Z17, K5, K2; \
	KORW     K1, K2, K1; \
	VPTESTMD Z31, Z18, K6, K2; \
	KORW     K1, K2, K1; \
	VPTESTMD Z31, Z19, K7, K2; \
	KORW     K1, K2, K1; \
	KORTESTW K1, K1

// FOLD lowers group g's best, in its active lanes with a flagged entry, to
// first[entry>>8] (VPMINUD: -1 is the largest unsigned value).
#define FOLD(g, k, e) \
	VPTESTMD   Z31, e, k, K2; \
	KMOVW      K2, K3; \
	VPSRLD     $8, e, Z28; \
	VPGATHERDD (DI)(Z28*4), K2, Z29; \
	VMOVDQU32  (g*SZ+gatherGroup_best)(BX), Z27; \
	VPMINUD    Z29, Z27, K3, Z27; \
	VMOVDQU32  Z27, (g*SZ+gatherGroup_best)(BX)

#define FOLD4 \
	FOLD(0, K4, Z16); \
	FOLD(1, K5, Z17); \
	FOLD(2, K6, Z18); \
	FOLD(3, K7, Z19)

// func scanGather(next *uint32, first *int32, gs *[gatherGroups]gatherGroup, end int)
TEXT ·scanGather(SB), NOSPLIT, $0-32
	MOVQ next+0(FP), SI
	MOVQ first+8(FP), DI
	MOVQ gs+16(FP), BX
	MOVQ end+24(FP), DX
	MOVL $0xffffff00, AX
	VPBROADCASTD AX, Z30
	MOVL $1, AX
	VPBROADCASTD AX, Z31
	MOVL $0xffff, R10
	XORQ R8, R8
	LOAD(0, Z0, Z1, Z16)
	LOAD(1, Z4, Z5, Z17)
	LOAD(2, Z8, Z9, Z18)
	LOAD(3, Z12, Z13, Z19)

step:
	ACTIVE(0, K4)
	ACTIVE(1, K5)
	ACTIVE(2, K6)
	ACTIVE(3, K7)
	DATA(K4, Z0, Z1, Y2, Z2, Y3)
	DATA(K5, Z4, Z5, Y6, Z6, Y7)
	DATA(K6, Z8, Z9, Y10, Z10, Y11)
	DATA(K7, Z12, Z13, Y14, Z14, Y15)
	ADV4(0)
	FLAGS
	JNZ fold0

back0:
	ADV4(8)
	FLAGS
	JNZ fold1

back1:
	ADV4(16)
	FLAGS
	JNZ fold2

back2:
	ADV4(24)
	FLAGS
	JNZ fold3

back3:
	ADDQ $4, R8
	CMPQ R8, DX
	JLT  step
	VMOVDQU32 Z16, (0*SZ+gatherGroup_e)(BX)
	VMOVDQU32 Z17, (1*SZ+gatherGroup_e)(BX)
	VMOVDQU32 Z18, (2*SZ+gatherGroup_e)(BX)
	VMOVDQU32 Z19, (3*SZ+gatherGroup_e)(BX)
	VZEROUPPER
	RET

fold0:
	FOLD4
	JMP back0

fold1:
	FOLD4
	JMP back1

fold2:
	FOLD4
	JMP back2

fold3:
	FOLD4
	JMP back3
