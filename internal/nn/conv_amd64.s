#include "go_asm.h"
#include "textflag.h"

// The AVX2 bodies of Conv2D's stride-1 Forward and Backward; the Go
// declarations in conv_amd64.go say what each computes.

// MAC adds K·X to ACC through T: VMULPD, then VADDPD, never fused.
#define MAC(X, K, T, ACC) VMULPD X, K, T; VADDPD T, ACC, ACC

// NEXT moves the forward cursors to the next tap, then, at the end of a
// kernel row and of an input channel, to the next one.
#define NEXT(TAPS, ROWS, PLANES) \
	ADDQ $8, SI; ADDQ R13, DX; DECQ CX; JNZ TAPS; \
	ADDQ fwdTile_xRow(AX), SI; ADDQ fwdTile_kRow(AX), DX; DECQ DI; JNZ ROWS; \
	ADDQ fwdTile_xPlane(AX), SI; ADDQ fwdTile_kPlane(AX), DX; DECQ R14; JNZ PLANES

// STORE4 stores the four lanes of Y (low half X) to P, P+plane, P+2·plane
// and P+3·plane, with plane in R8 and 3·plane in R9.
#define STORE4(Y, X, P) \
	VMOVSD X, (P); VMOVHPD X, (P)(R8*1); VEXTRACTF128 $1, Y, X; VMOVSD X, (P)(R8*2); VMOVHPD X, (P)(R9*1)

// STORECELL stores the cell at tile offset I: block 0 from Y0 at out + the
// cell's offset (out in DI), block 1 from Y1 outNext (R10) further on.
#define STORECELL(I, Y0, X0, Y1, X1) \
	MOVQ fwdTile_out+I(AX), SI; ADDQ DI, SI; STORE4(Y0, X0, SI); ADDQ R10, SI; STORE4(Y1, X1, SI)

// func convTileAVX2(t *fwdTile, p *fwdPass)
//
// Cell c's accumulators are Y(2c) (block 0) and Y(2c+1) (block 1); Y8 and
// Y9 hold a tap's two kernel vectors, Y10–Y13 its input value per cell. A
// pass of one block (next = 0) runs the loops from oneplanes, which leave
// block 1 alone, and copies block 0 over it before the stores.
TEXT ·convTileAVX2(SB), NOSPLIT, $0-16
	MOVQ    t+0(FP), AX
	MOVQ    p+8(FP), BX
	MOVQ    fwdPass_bias(BX), DI
	MOVQ    fwdPass_next(BX), R12
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(R12*1), Y1
	VMOVAPD Y0, Y2
	VMOVAPD Y1, Y3
	VMOVAPD Y0, Y4
	VMOVAPD Y1, Y5
	VMOVAPD Y0, Y6
	VMOVAPD Y1, Y7
	CMPQ    fwdTile_rows(AX), $0
	JEQ     tilestore
	CMPQ    fwdTile_cols(AX), $0
	JEQ     tilestore
	MOVQ    fwdPass_x(BX), SI
	MOVQ    fwdPass_k(BX), DX
	ADDQ    fwdTile_k(AX), DX
	MOVQ    fwdPass_step(BX), R13
	MOVQ    fwdPass_inC(BX), R14
	MOVQ    fwdTile_x+0(AX), R8
	MOVQ    fwdTile_x+8(AX), R9
	MOVQ    fwdTile_x+16(AX), R10
	MOVQ    fwdTile_x+24(AX), R11
	TESTQ   R12, R12
	JZ      oneplanes

tileplanes:
	MOVQ fwdTile_rows(AX), DI

tilerows:
	MOVQ fwdTile_cols(AX), CX

tiletaps:
	VMOVUPD      (DX), Y8
	VMOVUPD      (DX)(R12*1), Y9
	VBROADCASTSD (SI)(R8*1), Y10
	VBROADCASTSD (SI)(R9*1), Y11
	VBROADCASTSD (SI)(R10*1), Y12
	VBROADCASTSD (SI)(R11*1), Y13
	MAC(Y10, Y8, Y14, Y0)
	MAC(Y10, Y9, Y15, Y1)
	MAC(Y11, Y8, Y14, Y2)
	MAC(Y11, Y9, Y15, Y3)
	MAC(Y12, Y8, Y14, Y4)
	MAC(Y12, Y9, Y15, Y5)
	MAC(Y13, Y8, Y14, Y6)
	MAC(Y13, Y9, Y15, Y7)
	NEXT(tiletaps, tilerows, tileplanes)
	JMP          tilestore

oneplanes:
	MOVQ fwdTile_rows(AX), DI

onerows:
	MOVQ fwdTile_cols(AX), CX

onetaps:
	VMOVUPD      (DX), Y8
	VBROADCASTSD (SI)(R8*1), Y10
	VBROADCASTSD (SI)(R9*1), Y11
	VBROADCASTSD (SI)(R10*1), Y12
	VBROADCASTSD (SI)(R11*1), Y13
	MAC(Y10, Y8, Y14, Y0)
	MAC(Y11, Y8, Y15, Y2)
	MAC(Y12, Y8, Y14, Y4)
	MAC(Y13, Y8, Y15, Y6)
	NEXT(onetaps, onerows, oneplanes)
	VMOVAPD      Y0, Y1
	VMOVAPD      Y2, Y3
	VMOVAPD      Y4, Y5
	VMOVAPD      Y6, Y7

tilestore:
	MOVQ fwdPass_out(BX), DI
	MOVQ fwdPass_plane(BX), R8
	LEAQ (R8)(R8*2), R9
	MOVQ fwdPass_outNext(BX), R10
	STORECELL(0, Y0, X0, Y1, X1)
	STORECELL(8, Y2, X2, Y3, X3)
	STORECELL(16, Y4, X4, Y5, X5)
	STORECELL(24, Y6, X6, Y7, X7)
	VZEROUPPER
	RET

// AXPY sets DST = DST + grad·SRC through Y0/Y1 (or their low halves), with
// MOV, MUL and ADD of one width: four, two or one float64.
#define AXPY(MOV, MUL, ADD, G, A, B) \
	MOV (R10)(DX*1), A; MUL A, G, A; MOV (R8)(DX*1), B; ADD A, B, B; MOV B, (R8)(DX*1)

// func convCellAVX2(grad float64, gk, din, x, k *float64, cols, rows, planes, kRow, kSkip, xRow, xSkip int)
//
// One walk of the window per present half: R8 the destination (gk, then
// din), R10 the source (x, then k), their row strides in R12 and R13 and
// channel skips in R14 and R11 (bytes). DX is the byte offset of the
// columns in hand: SI bytes of whole vectors, then two columns if bit 1 of
// AX (cols mod 4) is set and one if bit 0 is, so nothing past a row is read
// or written. R9 holds din until its half starts.
TEXT ·convCellAVX2(SB), NOSPLIT, $0-96
	VBROADCASTSD grad+0(FP), Y14
	MOVQ         cols+40(FP), SI
	MOVQ         SI, AX
	ANDQ         $3, AX
	ANDQ         $-4, SI
	SHLQ         $3, SI
	MOVQ         din+16(FP), R9
	MOVQ         gk+8(FP), R8
	TESTQ        R8, R8
	JZ           celldin
	MOVQ         x+24(FP), R10
	MOVQ         kRow+64(FP), R12
	MOVQ         xRow+80(FP), R13
	MOVQ         kSkip+72(FP), R14
	MOVQ         xSkip+88(FP), R11
	JMP          cellhalf

celldin:
	TESTQ R9, R9
	JZ    celldone
	MOVQ  R9, R8
	XORQ  R9, R9
	MOVQ  k+32(FP), R10
	MOVQ  xRow+80(FP), R12
	MOVQ  kRow+64(FP), R13
	MOVQ  xSkip+88(FP), R14
	MOVQ  kSkip+72(FP), R11

cellhalf:
	SHLQ $3, R12
	SHLQ $3, R13
	SHLQ $3, R14
	SHLQ $3, R11
	MOVQ planes+56(FP), DI

cellplanes:
	MOVQ rows+48(FP), BX

cellrows:
	XORQ  DX, DX
	TESTQ SI, SI
	JZ    cellpair

cellfour:
	AXPY(VMOVUPD, VMULPD, VADDPD, Y14, Y0, Y1)
	ADDQ $32, DX
	CMPQ DX, SI
	JLT  cellfour

cellpair:
	TESTQ $2, AX
	JZ    cellone
	AXPY(VMOVUPD, VMULPD, VADDPD, X14, X0, X1)
	ADDQ  $16, DX

cellone:
	TESTQ $1, AX
	JZ    cellnext
	AXPY(VMOVSD, VMULSD, VADDSD, X14, X0, X1)

cellnext:
	ADDQ R12, R8
	ADDQ R13, R10
	DECQ BX
	JNZ  cellrows
	ADDQ R14, R8
	ADDQ R11, R10
	DECQ DI
	JNZ  cellplanes
	JMP  celldin

celldone:
	VZEROUPPER
	RET
