#include "textflag.h"

// func matMulTransB4(dst, a, bt *float64, m, n, k, ld int)
//
// Adds the first k&^3 steps of a·btᵀ into columns [0, n) of dst, n a multiple
// of 4. Per four steps of k, a panel's four bt rows are transposed into Y4..Y7
// (lane c of Y(4+q) is bt[j+c][l+q]); each row of a then broadcasts a[i][l+q]
// and does VMULPD then VADDPD into its accumulator dst[i][j:j+4]. A lane is
// thus one output's chain in ascending l: dotKernel's order. No FMA.
TEXT ·matMulTransB4(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ bt+16(FP), DX
	MOVQ m+24(FP), R12
	MOVQ n+32(FP), BX
	MOVQ k+40(FP), CX
	MOVQ ld+48(FP), R13
	SHLQ $3, CX  // row stride of a and bt in bytes
	SHLQ $3, R13 // row stride of dst in bytes

panel:
	XORQ AX, AX // l in bytes

quad:
	LEAQ        32(AX), R8
	CMPQ        R8, CX
	JGT         next
	LEAQ        (DX)(AX*1), R8 // &bt[j][l]
	LEAQ        (R8)(CX*1), R9 // &bt[j+1][l]
	VMOVUPD     (R8), X0
	VINSERTF128 $1, (R8)(CX*2), Y0, Y0
	VMOVUPD     (R9), X1
	VINSERTF128 $1, (R9)(CX*2), Y1, Y1
	VMOVUPD     16(R8), X2
	VINSERTF128 $1, 16(R8)(CX*2), Y2, Y2
	VMOVUPD     16(R9), X3
	VINSERTF128 $1, 16(R9)(CX*2), Y3, Y3
	VUNPCKLPD   Y1, Y0, Y4
	VUNPCKHPD   Y1, Y0, Y5
	VUNPCKLPD   Y3, Y2, Y6
	VUNPCKHPD   Y3, Y2, Y7
	LEAQ        (SI)(AX*1), R10 // &a[0][l]
	MOVQ        DI, R11         // &dst[0][j]
	MOVQ        R12, R8

row:
	VMOVUPD      (R11), Y8
	VBROADCASTSD (R10), Y9
	VMULPD       Y4, Y9, Y9
	VADDPD       Y9, Y8, Y8
	VBROADCASTSD 8(R10), Y9
	VMULPD       Y5, Y9, Y9
	VADDPD       Y9, Y8, Y8
	VBROADCASTSD 16(R10), Y9
	VMULPD       Y6, Y9, Y9
	VADDPD       Y9, Y8, Y8
	VBROADCASTSD 24(R10), Y9
	VMULPD       Y7, Y9, Y9
	VADDPD       Y9, Y8, Y8
	VMOVUPD      Y8, (R11)
	ADDQ         CX, R10
	ADDQ         R13, R11
	DECQ         R8
	JNZ          row
	ADDQ         $32, AX
	JMP          quad

next:
	ADDQ $32, DI
	LEAQ (DX)(CX*4), DX
	SUBQ $4, BX
	JNZ  panel
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
