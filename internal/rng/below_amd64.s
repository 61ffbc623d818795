#include "textflag.h"

// func belowRunAVX2(f, t, k []int64) (bits uint64, over int64)
//
// belowRunGo four draws per step. VPADDQ adds four tap words into four
// feed words, which are stored back; VPAND masks the sums x to 63
// bits; VPSUBQ forms x−k and VMOVMSKPD takes its four sign bits; VPADDQ
// and VPOR fold x+512 into the check Y13. x and k lie in [0, 2⁶³), so
// x−k cannot overflow and its sign bit is x < k, as belowRunGo's
// uint64(x−k)>>63 is. A block reads no word it writes (rng.go, below),
// so four draws at once read what four draws in turn read.
//
// The bits gather with fixed shifts: each step ORs its bits into the
// low end of BX, free until a 17th step, and rotates them to the top,
// moving the earlier draws' bits down, as belowRunGo's enter one at a
// time. The 1–3 draws left run the scalar loop the same way, and one
// shift at the end puts draw i at bit i. From the first YMM
// instruction to VZEROUPPER every instruction is VEX-encoded or
// integer, and the results are written before it (DESIGN.md §11.5).
TEXT ·belowRunAVX2(SB), NOSPLIT, $0-88
	MOVQ     f_base+0(FP), DI
	MOVQ     f_len+8(FP), CX
	MOVQ     t_base+24(FP), SI
	MOVQ     k_base+48(FP), DX
	MOVQ     CX, R8
	ANDQ     $-4, R8               // R8 = the draws in whole steps
	XORQ     AX, AX                // AX = the next draw
	XORQ     BX, BX                // BX = the bits
	VPCMPEQQ Y15, Y15, Y15
	VPSRLQ   $63, Y15, Y14
	VPSLLQ   $9, Y14, Y14          // Y14 = 512 in every lane
	VPSRLQ   $1, Y15, Y15          // Y15 = the 63-bit mask in every lane
	VPXOR    Y13, Y13, Y13         // Y13 = the check
	CMPQ     AX, R8
	JAE      fold

quads:
	VMOVDQU   (DI)(AX*8), Y0
	VPADDQ    (SI)(AX*8), Y0, Y0
	VMOVDQU   Y0, (DI)(AX*8)
	VPAND     Y15, Y0, Y0
	VPSUBQ    (DX)(AX*8), Y0, Y1
	VMOVMSKPD Y1, R9
	VPADDQ    Y14, Y0, Y0
	VPOR      Y0, Y13, Y13
	ORQ       R9, BX
	RORQ      $4, BX
	ADDQ      $4, AX
	CMPQ      AX, R8
	JB        quads

	// The check's four lanes fold into R10, which the tail extends.
fold:
	VEXTRACTI128 $1, Y13, X12
	VPOR         X12, X13, X13
	VPUNPCKHQDQ  X13, X13, X12
	VPOR         X12, X13, X13
	VMOVQ        X13, R10
	MOVQ         $0x7fffffffffffffff, R11

tail:
	CMPQ AX, CX
	JAE  done
	MOVQ (DI)(AX*8), R9
	ADDQ (SI)(AX*8), R9
	MOVQ R9, (DI)(AX*8)
	ANDQ R11, R9
	MOVQ R9, R12
	SUBQ (DX)(AX*8), R12
	SHRQ $63, R12
	ORQ  R12, BX
	RORQ $1, BX
	ADDQ $512, R9
	ORQ  R9, R10
	INCQ AX
	JMP  tail

done:
	NEGQ       CX
	ADDQ       $64, CX         // CX = 64 − len(f)
	SHRQ       CX, BX
	MOVQ       BX, bits+72(FP)
	MOVQ       R10, over+80(FP)
	VZEROUPPER
	RET
