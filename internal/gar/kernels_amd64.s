#include "textflag.h"

// The AVX2 bodies of median5Columns and accumulatePairwise; the Go
// declarations in kernels_amd64.go say what each computes.

// func median5AVX2(dst, a, b, c, d, e []float64) int
TEXT ·median5AVX2(SB), NOSPLIT, $0-152
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   a_base+24(FP), R8
	MOVQ   b_base+48(FP), R9
	MOVQ   c_base+72(FP), R10
	MOVQ   d_base+96(FP), R11
	MOVQ   e_base+120(FP), R12
	SHLQ   $3, CX
	XORQ   AX, AX
	VXORPD Y8, Y8, Y8
	TESTQ  CX, CX
	JZ     median5done

median5loop:
	VMOVUPD (R8)(AX*1), Y0
	VMOVUPD (R9)(AX*1), Y1
	VMOVUPD (R10)(AX*1), Y2
	VMOVUPD (R11)(AX*1), Y3
	VMOVUPD (R12)(AX*1), Y4
	VCMPPD  $3, Y1, Y0, Y5 // Y5: lanes with a NaN input
	VCMPPD  $3, Y3, Y2, Y6
	VCMPPD  $3, Y4, Y4, Y7
	VORPD   Y6, Y5, Y5
	VORPD   Y7, Y5, Y5
	VMINPD  Y1, Y0, Y6     // min(a,b)
	VMAXPD  Y1, Y0, Y0     // max(a,b)
	VMINPD  Y3, Y2, Y7     // min(c,d)
	VMAXPD  Y3, Y2, Y2     // max(c,d)
	VMAXPD  Y7, Y6, Y6     // f
	VMINPD  Y2, Y0, Y0     // g
	VMINPD  Y6, Y4, Y1     // min(e,f)
	VMAXPD  Y6, Y4, Y4     // max(e,f)
	VMINPD  Y0, Y4, Y4     // min(max(e,f), g)
	VMAXPD  Y4, Y1, Y1     // the median
	VCMPPD  $0, Y8, Y1, Y6 // stop before storing a block with a NaN input or a zero result
	VORPD   Y6, Y5, Y5
	VPTEST  Y5, Y5
	JNZ     median5done
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, CX
	JB      median5loop

median5done:
	SHRQ       $3, AX
	MOVQ       AX, ret+144(FP)
	VZEROUPPER
	RET

// func pairBlocksAVX2(acc *[16]float64, t []float64, stride int, off *[8]int, w int)
TEXT ·pairBlocksAVX2(SB), NOSPLIT, $0-56
	MOVQ    acc+0(FP), DI
	MOVQ    t_base+8(FP), SI
	MOVQ    stride+32(FP), DX
	SHLQ    $3, DX
	MOVQ    off+40(FP), AX
	MOVQ    0(AX), R8
	MOVQ    8(AX), R9
	MOVQ    16(AX), R10
	MOVQ    24(AX), R11
	MOVQ    32(AX), R12
	MOVQ    40(AX), R13
	MOVQ    48(AX), BX
	MOVQ    56(AX), AX
	MOVQ    w+48(FP), CX
	VMOVUPD 0(DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3

pairloop:
	VBROADCASTSD (SI)(R8*8), Y4
	VBROADCASTSD (SI)(R10*8), Y5
	VBROADCASTSD (SI)(R12*8), Y6
	VBROADCASTSD (SI)(BX*8), Y7
	VSUBPD       (SI)(R9*8), Y4, Y4
	VSUBPD       (SI)(R11*8), Y5, Y5
	VSUBPD       (SI)(R13*8), Y6, Y6
	VSUBPD       (SI)(AX*8), Y7, Y7
	VMULPD       Y4, Y4, Y4
	VMULPD       Y5, Y5, Y5
	VMULPD       Y6, Y6, Y6
	VMULPD       Y7, Y7, Y7
	VADDPD       Y4, Y0, Y0
	VADDPD       Y5, Y1, Y1
	VADDPD       Y6, Y2, Y2
	VADDPD       Y7, Y3, Y3
	ADDQ         DX, SI
	DECQ         CX
	JNZ          pairloop

	VMOVUPD    Y0, 0(DI)
	VMOVUPD    Y1, 32(DI)
	VMOVUPD    Y2, 64(DI)
	VMOVUPD    Y3, 96(DI)
	VZEROUPPER
	RET

// func transpose8AVX2(dst []float64, stride int, a, b, c, d, e, f, g, h []float64)
//
// Halves [a0 a1 | c0 c1] and [b0 b1 | d0 d1] unpack to rows [a0 b0 c0 d0]
// and [a1 b1 c1 d1]; each row gets 64 bytes, a cache line when aligned.
TEXT ·transpose8AVX2(SB), NOSPLIT, $0-224
	MOVQ  dst_base+0(FP), DI
	MOVQ  stride+24(FP), DX
	SHLQ  $3, DX
	LEAQ  (DX)(DX*2), BX
	MOVQ  a_base+32(FP), R8
	MOVQ  a_len+40(FP), CX
	MOVQ  b_base+56(FP), R9
	MOVQ  c_base+80(FP), R10
	MOVQ  d_base+104(FP), R11
	MOVQ  e_base+128(FP), R12
	MOVQ  f_base+152(FP), R13
	MOVQ  g_base+176(FP), R14
	MOVQ  h_base+200(FP), SI
	SHLQ  $3, CX
	XORQ  AX, AX
	TESTQ CX, CX
	JZ    transposedone

transposeloop:
	VMOVUPD     (R8)(AX*1), X0
	VINSERTF128 $1, (R10)(AX*1), Y0, Y0
	VMOVUPD     (R9)(AX*1), X1
	VINSERTF128 $1, (R11)(AX*1), Y1, Y1
	VMOVUPD     16(R8)(AX*1), X2
	VINSERTF128 $1, 16(R10)(AX*1), Y2, Y2
	VMOVUPD     16(R9)(AX*1), X3
	VINSERTF128 $1, 16(R11)(AX*1), Y3, Y3
	VMOVUPD     (R12)(AX*1), X8
	VINSERTF128 $1, (R14)(AX*1), Y8, Y8
	VMOVUPD     (R13)(AX*1), X9
	VINSERTF128 $1, (SI)(AX*1), Y9, Y9
	VMOVUPD     16(R12)(AX*1), X10
	VINSERTF128 $1, 16(R14)(AX*1), Y10, Y10
	VMOVUPD     16(R13)(AX*1), X11
	VINSERTF128 $1, 16(SI)(AX*1), Y11, Y11
	VUNPCKLPD   Y1, Y0, Y4
	VUNPCKHPD   Y1, Y0, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	VUNPCKLPD   Y9, Y8, Y12
	VUNPCKHPD   Y9, Y8, Y13
	VUNPCKLPD   Y11, Y10, Y14
	VUNPCKHPD   Y11, Y10, Y15
	VMOVUPD     Y4, (DI)
	VMOVUPD     Y12, 32(DI)
	VMOVUPD     Y5, (DI)(DX*1)
	VMOVUPD     Y13, 32(DI)(DX*1)
	VMOVUPD     Y6, (DI)(DX*2)
	VMOVUPD     Y14, 32(DI)(DX*2)
	VMOVUPD     Y7, (DI)(BX*1)
	VMOVUPD     Y15, 32(DI)(BX*1)
	LEAQ        (DI)(DX*4), DI
	ADDQ        $32, AX
	CMPQ        AX, CX
	JB          transposeloop

transposedone:
	VZEROUPPER
	RET

// func lineOffset(p *float64) int
TEXT ·lineOffset(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	NEGQ AX
	ANDQ $63, AX
	SHRQ $3, AX
	MOVQ AX, ret+8(FP)
	RET
