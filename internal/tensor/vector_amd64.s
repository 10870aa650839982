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
