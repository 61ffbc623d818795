#include "textflag.h"

// func realPairsAVX(r []float64, stride int, u *[4]float64)
//
// Y0–Y3 hold u00, u01, u10 and u11 in every lane. Each lane of a step
// computes one amplitude of a pair (v0, v1): u00·v0 + u01·v1 where v0
// was, u10·v0 + u11·v1 where v1 was. A VMULPD rounds each product and a
// VADDPD their sum, one IEEE rounding each, the matrix entry and the
// first product first, as in the Go loops' float64(u00*v0) +
// float64(u01*v1); no fused multiply-add appears. From the first YMM
// instruction to VZEROUPPER every instruction is VEX-encoded or
// integer: a legacy-SSE one in between costs a state transition each
// time it runs (DESIGN.md §11.5).
TEXT ·realPairsAVX(SB), NOSPLIT, $0-40
	MOVQ r_base+0(FP), SI
	MOVQ r_len+8(FP), CX
	MOVQ stride+24(FP), BX
	MOVQ u+32(FP), DX
	VBROADCASTSD 0(DX), Y0
	VBROADCASTSD 8(DX), Y1
	VBROADCASTSD 16(DX), Y2
	VBROADCASTSD 24(DX), Y3
	LEAQ (SI)(CX*8), DI // DI = the end of r
	CMPQ BX, $2
	JB   stride1
	JE   stride2
	CMPQ BX, $4
	JE   stride4
	SHLQ $3, BX         // BX = stride in bytes

	// Stride ≥ 8: in each block of 2·stride amplitudes, v0 runs over
	// the first stride amplitudes and v1 over the second.
blocks:
	CMPQ SI, DI
	JAE  done
	LEAQ (SI)(BX*1), R8 // R8 = the block's second half
	XORQ AX, AX

pairs:
	VMOVUPD (SI)(AX*1), Y4
	VMOVUPD (R8)(AX*1), Y5
	VMULPD  Y4, Y0, Y6
	VMULPD  Y5, Y1, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  Y4, Y2, Y8
	VMULPD  Y5, Y3, Y9
	VADDPD  Y9, Y8, Y8
	VMOVUPD Y6, (SI)(AX*1)
	VMOVUPD Y8, (R8)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, BX
	JB      pairs
	LEAQ    (SI)(BX*2), SI
	JMP     blocks

	// Stride 4: each block of 8 amplitudes is v0, then v1.
stride4:
	CMPQ    SI, DI
	JAE     done
	VMOVUPD 0(SI), Y4
	VMOVUPD 32(SI), Y5
	VMULPD  Y4, Y0, Y6
	VMULPD  Y5, Y1, Y7
	VADDPD  Y7, Y6, Y6
	VMULPD  Y4, Y2, Y8
	VMULPD  Y5, Y3, Y9
	VADDPD  Y9, Y8, Y8
	VMOVUPD Y6, 0(SI)
	VMOVUPD Y8, 32(SI)
	ADDQ    $64, SI
	JMP     stride4

	// Stride 2: a block [b0 b1 b2 b3] holds the pairs (b0, b2) and
	// (b1, b3). Y10 = [u00 u00 u10 u10] and Y11 = [u01 u01 u11 u11] times
	// the broadcast halves [b0 b1 b0 b1] and [b2 b3 b2 b3] give the
	// block's results in place, two blocks per step.
stride2:
	VPERM2F128     $0x20, Y2, Y0, Y10
	VPERM2F128     $0x20, Y3, Y1, Y11

loop2:
	CMPQ           SI, DI
	JAE            done
	VBROADCASTF128 0(SI), Y4
	VBROADCASTF128 16(SI), Y5
	VBROADCASTF128 32(SI), Y6
	VBROADCASTF128 48(SI), Y7
	VMULPD         Y4, Y10, Y4
	VMULPD         Y5, Y11, Y5
	VMULPD         Y6, Y10, Y6
	VMULPD         Y7, Y11, Y7
	VADDPD         Y5, Y4, Y4
	VADDPD         Y7, Y6, Y6
	VMOVUPD        Y4, 0(SI)
	VMOVUPD        Y6, 32(SI)
	ADDQ           $64, SI
	JMP            loop2

	// Stride 1: the pairs are adjacent. Y10 = [u00 u10 u00 u10] and
	// Y11 = [u01 u11 u01 u11] times [a0 a0 a2 a2] and [a1 a1 a3 a3] give
	// [a0' a1' a2' a3'] in place, eight amplitudes per step.
stride1:
	VUNPCKLPD Y2, Y0, Y10
	VUNPCKLPD Y3, Y1, Y11

loop1:
	CMPQ      SI, DI
	JAE       done
	VMOVDDUP  0(SI), Y4
	VPERMILPD $0x0f, 0(SI), Y5
	VMOVDDUP  32(SI), Y6
	VPERMILPD $0x0f, 32(SI), Y7
	VMULPD    Y4, Y10, Y4
	VMULPD    Y5, Y11, Y5
	VMULPD    Y6, Y10, Y6
	VMULPD    Y7, Y11, Y7
	VADDPD    Y5, Y4, Y4
	VADDPD    Y7, Y6, Y6
	VMOVUPD   Y4, 0(SI)
	VMOVUPD   Y6, 32(SI)
	ADDQ      $64, SI
	JMP       loop1

done:
	VZEROUPPER
	RET
