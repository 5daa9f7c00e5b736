//go:build !race

#include "textflag.h"

// The AVX2 bodies of axpy and axpy4 (kernels_amd64.go). Each output element
// is formed exactly as the Go body forms it: a separate VMULPD and VADDPD per
// product, never a fused multiply-add, and the products added in argument
// order. Every instruction is VEX-encoded, the scalar tails included, and
// VZEROUPPER precedes RET, so no SSE code runs with a dirty upper YMM state.

// func axpyAVX2(o []float64, av float64, b []float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	MOVQ         b_base+32(FP), SI
	VBROADCASTSD av+24(FP), Y0
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           axpy_vec4

axpy_loop8:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JB      axpy_loop8

axpy_vec4:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JB      axpy_scalar
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

axpy_scalar:
	CMPQ   AX, CX
	JAE    axpy_done
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	JMP    axpy_scalar

axpy_done:
	VZEROUPPER
	RET

// func axpy4AVX2(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64)
TEXT ·axpy4AVX2(SB), NOSPLIT, $0-152
	MOVQ         o_base+0(FP), DI
	MOVQ         o_len+8(FP), CX
	VBROADCASTSD a0+24(FP), Y0
	VBROADCASTSD a1+32(FP), Y1
	VBROADCASTSD a2+40(FP), Y2
	VBROADCASTSD a3+48(FP), Y3
	MOVQ         b0_base+56(FP), R8
	MOVQ         b1_base+80(FP), R9
	MOVQ         b2_base+104(FP), R10
	MOVQ         b3_base+128(FP), R11
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           axpy4_vec4

axpy4_loop8:
	VMOVUPD (DI)(AX*8), Y4
	VMOVUPD 32(DI)(AX*8), Y5
	VMULPD  (R8)(AX*8), Y0, Y6
	VMULPD  32(R8)(AX*8), Y0, Y7
	VADDPD  Y6, Y4, Y4
	VADDPD  Y7, Y5, Y5
	VMULPD  (R9)(AX*8), Y1, Y8
	VMULPD  32(R9)(AX*8), Y1, Y9
	VADDPD  Y8, Y4, Y4
	VADDPD  Y9, Y5, Y5
	VMULPD  (R10)(AX*8), Y2, Y10
	VMULPD  32(R10)(AX*8), Y2, Y11
	VADDPD  Y10, Y4, Y4
	VADDPD  Y11, Y5, Y5
	VMULPD  (R11)(AX*8), Y3, Y12
	VMULPD  32(R11)(AX*8), Y3, Y13
	VADDPD  Y12, Y4, Y4
	VADDPD  Y13, Y5, Y5
	VMOVUPD Y4, (DI)(AX*8)
	VMOVUPD Y5, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JB      axpy4_loop8

axpy4_vec4:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JB      axpy4_scalar
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R9)(AX*8), Y1, Y8
	VADDPD  Y8, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y10
	VADDPD  Y10, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y12
	VADDPD  Y12, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX

axpy4_scalar:
	CMPQ   AX, CX
	JAE    axpy4_done
	VMOVSD (DI)(AX*8), X4
	VMULSD (R8)(AX*8), X0, X6
	VADDSD X6, X4, X4
	VMULSD (R9)(AX*8), X1, X8
	VADDSD X8, X4, X4
	VMULSD (R10)(AX*8), X2, X10
	VADDSD X10, X4, X4
	VMULSD (R11)(AX*8), X3, X12
	VADDSD X12, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	JMP    axpy4_scalar

axpy4_done:
	VZEROUPPER
	RET

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID               // AX: the highest standard leaf
	CMPL  AX, $7
	JB    avx2_no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL  CX, $0x18000000
	JNE   avx2_no
	XORL  CX, CX
	XGETBV              // XCR0: the OS saves the XMM (bit 1) and YMM (bit 2) state
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   avx2_no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $(1<<5), BX   // AVX2
	JZ    avx2_no
	MOVB  $1, ret+0(FP)

avx2_no:
	RET
