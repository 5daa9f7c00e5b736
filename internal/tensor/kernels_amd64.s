//go:build !race

#include "textflag.h"

// The AVX2 bodies of axpy, axpy4, minMax, quantize, mix and mixU8
// (kernels_amd64.go). Each output element is formed exactly as the Go body
// forms it: in axpy, axpy4, mix and mixU8 a separate VMULPD and VADDPD per
// product, never a fused multiply-add, and in axpy and axpy4 the products
// added in argument order; in quantize a VDIVPD, never a multiply by the
// reciprocal. Every instruction is VEX-encoded, the scalar
// tails included, and VZEROUPPER precedes RET, so no SSE code runs with a
// dirty upper YMM state.

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

// func minMaxAVX2(w []float64) (lo, hi float64, finite bool)
//
// Y0/Y3 fold the minimum, Y1/Y4 the maximum and Y2/Y5 the sum of v − v, which
// is +0 for a finite v and NaN for ±Inf or NaN. VMINPD may return either zero
// of a ±0 pair; the caller settles the sign of a zero minimum.
TEXT ·minMaxAVX2(SB), NOSPLIT, $0-41
	MOVQ         w_base+0(FP), SI
	MOVQ         w_len+8(FP), CX
	MOVQ         $0x7ff0000000000000, AX // +Inf
	VMOVQ        AX, X0
	VBROADCASTSD X0, Y0
	VMOVAPD      Y0, Y3
	MOVQ         $-0x10000000000000, AX  // -Inf
	VMOVQ        AX, X1
	VBROADCASTSD X1, Y1
	VMOVAPD      Y1, Y4
	VXORPD       Y2, Y2, Y2
	VXORPD       Y5, Y5, Y5
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           minmax_vec4

minmax_loop8:
	VMOVUPD (SI)(AX*8), Y6
	VMOVUPD 32(SI)(AX*8), Y7
	VMINPD  Y6, Y0, Y0
	VMINPD  Y7, Y3, Y3
	VMAXPD  Y6, Y1, Y1
	VMAXPD  Y7, Y4, Y4
	VSUBPD  Y6, Y6, Y6
	VSUBPD  Y7, Y7, Y7
	VADDPD  Y6, Y2, Y2
	VADDPD  Y7, Y5, Y5
	ADDQ    $8, AX
	CMPQ    AX, DX
	JB      minmax_loop8
	VMINPD  Y3, Y0, Y0
	VMAXPD  Y4, Y1, Y1
	VADDPD  Y5, Y2, Y2

minmax_vec4:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JB      minmax_fold
	VMOVUPD (SI)(AX*8), Y6
	VMINPD  Y6, Y0, Y0
	VMAXPD  Y6, Y1, Y1
	VSUBPD  Y6, Y6, Y6
	VADDPD  Y6, Y2, Y2
	ADDQ    $4, AX

minmax_fold:
	VEXTRACTF128 $1, Y0, X3
	VMINPD       X3, X0, X0
	VEXTRACTF128 $1, Y1, X4
	VMAXPD       X4, X1, X1
	VEXTRACTF128 $1, Y2, X5
	VADDPD       X5, X2, X2
	VUNPCKHPD    X0, X0, X3
	VMINSD       X3, X0, X0
	VUNPCKHPD    X1, X1, X4
	VMAXSD       X4, X1, X1
	VUNPCKHPD    X2, X2, X5
	VADDSD       X5, X2, X2

minmax_scalar:
	CMPQ   AX, CX
	JAE    minmax_done
	VMOVSD (SI)(AX*8), X6
	VMINSD X6, X0, X0
	VMAXSD X6, X1, X1
	VSUBSD X6, X6, X6
	VADDSD X6, X2, X2
	INCQ   AX
	JMP    minmax_scalar

minmax_done:
	VMOVSD   X0, lo+24(FP)
	VMOVSD   X1, hi+32(FP)
	VUCOMISD X2, X2            // unordered: some v − v was NaN
	SETPC    finite+40(FP)
	VZEROUPPER
	RET

// func quantizeAVX2(dst []uint8, w []float64, lo, scale float64)
//
// Per element: x = (v − lo) / scale, t = trunc(x), t += 1 where x − t ≥ 0.5
// (x − t is exact, so this is math.Round for 0 ≤ x < 2⁵²), then the low byte
// of the truncating int32 conversion, which is what Go's uint8(t) is on amd64
// (0 for a NaN or an infinite t).
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         w_base+24(FP), SI
	MOVQ         w_len+32(FP), CX
	VBROADCASTSD lo+48(FP), Y0
	VBROADCASTSD scale+56(FP), Y1
	MOVQ         $0x3fe0000000000000, AX // 0.5
	VMOVQ        AX, X2
	VBROADCASTSD X2, Y2
	MOVQ         $0x3ff0000000000000, AX // 1.0
	VMOVQ        AX, X3
	VBROADCASTSD X3, Y3
	MOVL         $0x0c080400, AX         // VPSHUFB: byte 0 of each doubleword to bytes 0–3
	VMOVD        AX, X8
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           quant_vec4

quant_loop8:
	VMOVUPD     (SI)(AX*8), Y4
	VMOVUPD     32(SI)(AX*8), Y5
	VSUBPD      Y0, Y4, Y4
	VSUBPD      Y0, Y5, Y5
	VDIVPD      Y1, Y4, Y4
	VDIVPD      Y1, Y5, Y5
	VROUNDPD    $3, Y4, Y6
	VROUNDPD    $3, Y5, Y7
	VSUBPD      Y6, Y4, Y4
	VSUBPD      Y7, Y5, Y5
	VCMPPD      $0x1d, Y2, Y4, Y4 // x − t ≥ 0.5, ordered
	VCMPPD      $0x1d, Y2, Y5, Y5
	VANDPD      Y3, Y4, Y4
	VANDPD      Y3, Y5, Y5
	VADDPD      Y4, Y6, Y6
	VADDPD      Y5, Y7, Y7
	VCVTTPD2DQY Y6, X6
	VCVTTPD2DQY Y7, X7
	VPSHUFB     X8, X6, X6
	VPSHUFB     X8, X7, X7
	VPUNPCKLDQ  X7, X6, X6
	VMOVQ       X6, (DI)(AX*1)
	ADDQ        $8, AX
	CMPQ        AX, DX
	JB          quant_loop8

quant_vec4:
	MOVQ        CX, DX
	SUBQ        AX, DX
	CMPQ        DX, $4
	JB          quant_scalar
	VMOVUPD     (SI)(AX*8), Y4
	VSUBPD      Y0, Y4, Y4
	VDIVPD      Y1, Y4, Y4
	VROUNDPD    $3, Y4, Y6
	VSUBPD      Y6, Y4, Y4
	VCMPPD      $0x1d, Y2, Y4, Y4
	VANDPD      Y3, Y4, Y4
	VADDPD      Y4, Y6, Y6
	VCVTTPD2DQY Y6, X6
	VPSHUFB     X8, X6, X6
	VMOVD       X6, (DI)(AX*1)
	ADDQ        $4, AX

quant_scalar:
	CMPQ       AX, CX
	JAE        quant_done
	VMOVSD     (SI)(AX*8), X4
	VSUBSD     X0, X4, X4
	VDIVSD     X1, X4, X4
	VROUNDSD   $3, X4, X4, X6
	VSUBSD     X6, X4, X4
	VCMPSD     $0x1d, X2, X4, X4
	VANDPD     X3, X4, X4
	VADDSD     X4, X6, X6
	VCVTTSD2SI X6, BX
	MOVB       BX, (DI)(AX*1)
	INCQ       AX
	JMP        quant_scalar

quant_done:
	VZEROUPPER
	RET

// func mixAVX2(dst, a, b []float64, alpha, beta float64) (finite bool)
//
// Per element: beta·a + alpha·b. Y2/Y3 sum b − b, +0 for a finite b and NaN
// otherwise, as in minMax. dst may be a: each block is loaded before it is
// stored.
TEXT ·mixAVX2(SB), NOSPLIT, $0-89
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         a_base+24(FP), SI
	MOVQ         b_base+48(FP), R8
	VBROADCASTSD alpha+72(FP), Y0
	VBROADCASTSD beta+80(FP), Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           mix_vec4

mix_loop8:
	VMOVUPD (R8)(AX*8), Y4
	VMOVUPD 32(R8)(AX*8), Y5
	VMULPD  (SI)(AX*8), Y1, Y6
	VMULPD  32(SI)(AX*8), Y1, Y7
	VMULPD  Y4, Y0, Y8
	VMULPD  Y5, Y0, Y9
	VADDPD  Y8, Y6, Y6
	VADDPD  Y9, Y7, Y7
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y7, 32(DI)(AX*8)
	VSUBPD  Y4, Y4, Y4
	VSUBPD  Y5, Y5, Y5
	VADDPD  Y4, Y2, Y2
	VADDPD  Y5, Y3, Y3
	ADDQ    $8, AX
	CMPQ    AX, DX
	JB      mix_loop8
	VADDPD  Y3, Y2, Y2

mix_vec4:
	MOVQ    CX, DX
	SUBQ    AX, DX
	CMPQ    DX, $4
	JB      mix_fold
	VMOVUPD (R8)(AX*8), Y4
	VMULPD  (SI)(AX*8), Y1, Y6
	VMULPD  Y4, Y0, Y8
	VADDPD  Y8, Y6, Y6
	VMOVUPD Y6, (DI)(AX*8)
	VSUBPD  Y4, Y4, Y4
	VADDPD  Y4, Y2, Y2
	ADDQ    $4, AX

mix_fold:
	VEXTRACTF128 $1, Y2, X3
	VADDPD       X3, X2, X2
	VUNPCKHPD    X2, X2, X3
	VADDSD       X3, X2, X2

mix_scalar:
	CMPQ   AX, CX
	JAE    mix_done
	VMOVSD (R8)(AX*8), X4
	VMULSD (SI)(AX*8), X1, X6
	VMULSD X4, X0, X8
	VADDSD X8, X6, X6
	VMOVSD X6, (DI)(AX*8)
	VSUBSD X4, X4, X4
	VADDSD X4, X2, X2
	INCQ   AX
	JMP    mix_scalar

mix_done:
	VUCOMISD X2, X2            // unordered: some b − b was NaN
	SETPC    finite+88(FP)
	VZEROUPPER
	RET

// func mixU8AVX2(dst, a []float64, q []uint8, lo, scale, alpha, beta float64) (finite bool)
//
// mixAVX2 with b = lo + float64(q)·scale: VPMOVZXBD widens four bytes to
// doublewords, VCVTDQ2PD converts them exactly, then a VMULPD by scale and a
// VADDPD of lo. The finiteness sum runs over those dequantized values.
TEXT ·mixU8AVX2(SB), NOSPLIT, $0-105
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         a_base+24(FP), SI
	MOVQ         q_base+48(FP), R8
	VBROADCASTSD lo+72(FP), Y10
	VBROADCASTSD scale+80(FP), Y11
	VBROADCASTSD alpha+88(FP), Y0
	VBROADCASTSD beta+96(FP), Y1
	VXORPD       Y2, Y2, Y2
	VXORPD       Y3, Y3, Y3
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-8, DX
	JZ           mixu8_vec4

mixu8_loop8:
	VPMOVZXBD (R8)(AX*1), X4
	VPMOVZXBD 4(R8)(AX*1), X5
	VCVTDQ2PD X4, Y4
	VCVTDQ2PD X5, Y5
	VMULPD    Y11, Y4, Y4
	VMULPD    Y11, Y5, Y5
	VADDPD    Y10, Y4, Y4
	VADDPD    Y10, Y5, Y5
	VMULPD    (SI)(AX*8), Y1, Y6
	VMULPD    32(SI)(AX*8), Y1, Y7
	VMULPD    Y4, Y0, Y8
	VMULPD    Y5, Y0, Y9
	VADDPD    Y8, Y6, Y6
	VADDPD    Y9, Y7, Y7
	VMOVUPD   Y6, (DI)(AX*8)
	VMOVUPD   Y7, 32(DI)(AX*8)
	VSUBPD    Y4, Y4, Y4
	VSUBPD    Y5, Y5, Y5
	VADDPD    Y4, Y2, Y2
	VADDPD    Y5, Y3, Y3
	ADDQ      $8, AX
	CMPQ      AX, DX
	JB        mixu8_loop8
	VADDPD    Y3, Y2, Y2

mixu8_vec4:
	MOVQ      CX, DX
	SUBQ      AX, DX
	CMPQ      DX, $4
	JB        mixu8_fold
	VPMOVZXBD (R8)(AX*1), X4
	VCVTDQ2PD X4, Y4
	VMULPD    Y11, Y4, Y4
	VADDPD    Y10, Y4, Y4
	VMULPD    (SI)(AX*8), Y1, Y6
	VMULPD    Y4, Y0, Y8
	VADDPD    Y8, Y6, Y6
	VMOVUPD   Y6, (DI)(AX*8)
	VSUBPD    Y4, Y4, Y4
	VADDPD    Y4, Y2, Y2
	ADDQ      $4, AX

mixu8_fold:
	VEXTRACTF128 $1, Y2, X3
	VADDPD       X3, X2, X2
	VUNPCKHPD    X2, X2, X3
	VADDSD       X3, X2, X2

mixu8_scalar:
	CMPQ      AX, CX
	JAE       mixu8_done
	MOVBLZX   (R8)(AX*1), BX
	VMOVD     BX, X4
	VCVTDQ2PD X4, X4
	VMULSD    X11, X4, X4
	VADDSD    X10, X4, X4
	VMULSD    (SI)(AX*8), X1, X6
	VMULSD    X4, X0, X8
	VADDSD    X8, X6, X6
	VMOVSD    X6, (DI)(AX*8)
	VSUBSD    X4, X4, X4
	VADDSD    X4, X2, X2
	INCQ      AX
	JMP       mixu8_scalar

mixu8_done:
	VUCOMISD X2, X2
	SETPC    finite+104(FP)
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
