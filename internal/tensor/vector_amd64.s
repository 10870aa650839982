#include "textflag.h"

// func isFiniteAVX2(v []float64) bool
//
// Per lane (bits & exp) == exp marks a NaN or ±Inf; four blocks of four are
// ORed and tested with one VPTEST. len(v) is a non-zero multiple of 16.
TEXT ·isFiniteAVX2(SB), NOSPLIT, $0-25
	MOVQ         v_base+0(FP), SI
	MOVQ         v_len+8(FP), CX
	MOVQ         $0x7ff0000000000000, AX
	MOVQ         AX, X4
	VPBROADCASTQ X4, Y4
	MOVB         $0, ret+24(FP)

loop:
	VPAND    (SI), Y4, Y0
	VPAND    32(SI), Y4, Y1
	VPAND    64(SI), Y4, Y2
	VPAND    96(SI), Y4, Y3
	VPCMPEQQ Y4, Y0, Y0
	VPCMPEQQ Y4, Y1, Y1
	VPCMPEQQ Y4, Y2, Y2
	VPCMPEQQ Y4, Y3, Y3
	VPOR     Y1, Y0, Y0
	VPOR     Y3, Y2, Y2
	VPOR     Y2, Y0, Y0
	VPTEST   Y0, Y0
	JNZ      done
	ADDQ     $128, SI
	SUBQ     $16, CX
	JNZ      loop
	MOVB     $1, ret+24(FP)

done:
	VZEROUPPER
	RET

// func widenF32AVX2(dst []float64, src []byte) bool
//
// Widens 16 float32s a pass, read unaligned from src, with four VCVTPS2PD
// (the same rounding-free conversion as Go's CVTSS2SD); per 32-bit lane
// (bits & exp) == exp marks a NaN or ±Inf, ORed into Y6 across the whole
// call and tested with one VPTEST at the end. len(dst) is a non-zero
// multiple of 16 and len(src) == 4·len(dst).
TEXT ·widenF32AVX2(SB), NOSPLIT, $0-49
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	MOVQ         $0x7f800000, AX
	MOVQ         AX, X7
	VPBROADCASTD X7, Y7
	VPXOR        Y6, Y6, Y6

loop:
	VPAND     (SI), Y7, Y0
	VPAND     32(SI), Y7, Y1
	VPCMPEQD  Y7, Y0, Y0
	VPCMPEQD  Y7, Y1, Y1
	VPOR      Y0, Y6, Y6
	VPOR      Y1, Y6, Y6
	VCVTPS2PD (SI), Y2
	VCVTPS2PD 16(SI), Y3
	VCVTPS2PD 32(SI), Y4
	VCVTPS2PD 48(SI), Y5
	VMOVUPD   Y2, (DI)
	VMOVUPD   Y3, 32(DI)
	VMOVUPD   Y4, 64(DI)
	VMOVUPD   Y5, 96(DI)
	ADDQ      $64, SI
	ADDQ      $128, DI
	SUBQ      $16, CX
	JNZ       loop
	VPTEST    Y6, Y6
	SETEQ     ret+48(FP)
	VZEROUPPER
	RET
