#include "textflag.h"

// Offsets, in bytes, from a value to its tap and to the value lfLen on.
#define TAP 2672 // 8·(lfLen-lfTap)
#define OUT 4856 // 8·lfLen

// GROUP runs the recurrence and the three compares over the four values at
// off(SI): bits sh..sh+3 of R8 (below sync), R9 (below the upper half's
// side threshold) and R10 (below the lower half's), and Y10 |= "drawn again".
#define GROUP(off, sh) \
	VMOVDQU	off(SI), Y0; \
	VPADDQ	off+TAP(SI), Y0, Y1; \
	VMOVDQU	Y1, off+OUT(SI); \
	VPAND	Y15, Y0, Y0; \
	VPCMPGTQ	Y0, Y14, Y1; \
	VPCMPGTQ	Y0, Y13, Y2; \
	VPCMPGTQ	Y0, Y12, Y3; \
	VPCMPGTQ	Y11, Y0, Y4; \
	VPOR	Y4, Y10, Y10; \
	VMOVMSKPD	Y1, AX; \
	VMOVMSKPD	Y2, BX; \
	VMOVMSKPD	Y3, DX; \
	SHLQ	$sh, AX; \
	SHLQ	$sh, BX; \
	SHLQ	$sh, DX; \
	ORQ	AX, R8; \
	ORQ	BX, R9; \
	ORQ	DX, R10

// func descendWords(vals, out []uint64, second uint64, th *[4]uint64) (n int, next uint64)
TEXT ·descendWords(SB), NOSPLIT, $0-80
	MOVQ	vals_base+0(FP), SI
	MOVQ	vals_len+8(FP), CX
	MOVQ	out_base+24(FP), DI
	MOVQ	out_len+32(FP), R11
	MOVQ	second+48(FP), R12

	// CX = whole chunks: of the values before the last lfLen, and of out's
	// room at three words a chunk.
	SUBQ	$607, CX
	JLE	done
	SHRQ	$6, CX
	MOVQ	R11, AX
	XORQ	DX, DX
	MOVQ	$3, BX
	DIVQ	BX
	CMPQ	AX, CX
	CMOVQLT	AX, CX
	TESTQ	CX, CX
	JEQ	done

	MOVQ	th+56(FP), AX
	VPBROADCASTQ	0(AX), Y14 // sync
	VPBROADCASTQ	8(AX), Y13 // the upper half's side threshold
	VPBROADCASTQ	16(AX), Y12 // the lower half's
	VPBROADCASTQ	24(AX), Y11 // one
	VPCMPEQQ	Y0, Y0, Y0
	VPADDQ	Y0, Y11, Y11 // one-1
	VPSRLQ	$1, Y0, Y15 // 1<<63-1
	MOVQ	$0x5555555555555555, R13
	MOVQ	$0xaaaaaaaaaaaaaaaa, R14

chunk:
	XORQ	R8, R8
	XORQ	R9, R9
	XORQ	R10, R10
	VPXOR	Y10, Y10, Y10
	GROUP(0, 0)
	GROUP(32, 4)
	GROUP(64, 8)
	GROUP(96, 12)
	GROUP(128, 16)
	GROUP(160, 20)
	GROUP(192, 24)
	GROUP(224, 28)
	GROUP(256, 32)
	GROUP(288, 36)
	GROUP(320, 40)
	GROUP(352, 44)
	GROUP(384, 48)
	GROUP(416, 52)
	GROUP(448, 56)
	GROUP(480, 60)
	// A chunk with a value Float64 draws again is left to descendBlock. The
	// stream values stored above are the ones descendBlock stores again.
	VPTEST	Y10, Y10
	JNE	done

	// L: first draws in the lower half, the openers of a pair, or second
	// draws that are not in the upper half. A run of L starts on a first
	// draw, so its openers are every other bit from its start: the runs
	// that start on an even bit (E) take their even bits, the others their
	// odd ones. Adding the start bit carries through its run, so the xor
	// marks the run.
	MOVQ	R8, AX
	ORQ	R12, AX
	NOTQ	AX // L = ^U &^ second
	LEAQ	(AX)(AX*1), BX
	NOTQ	BX
	ANDQ	AX, BX // the runs' starts
	ANDQ	R13, BX
	ADDQ	AX, BX
	XORQ	AX, BX
	ANDQ	AX, BX // E
	MOVQ	BX, DX
	ANDQ	R13, DX
	NOTQ	BX
	ANDQ	AX, BX
	ANDQ	R14, BX
	ORQ	DX, BX // O, the openers: not kept
	LEAQ	(BX)(BX*1), DX
	ORQ	R12, DX // S, the second draws: the half bit
	XORQ	R9, R10
	ANDQ	DX, R10
	XORQ	R10, R9 // below the side threshold of the half each is in
	NOTQ	R9
	MOVQ	BX, R12
	SHRQ	$63, R12 // the opener of bit 63 draws its second in the next chunk
	NOTQ	BX // K, the kept bits
	PEXTQ	BX, DX, AX
	PEXTQ	BX, R9, DX
	POPCNTQ	BX, BX
	MOVQ	AX, 0(DI)
	MOVQ	DX, 8(DI)
	MOVQ	BX, 16(DI)

	ADDQ	$512, SI
	ADDQ	$24, DI
	DECQ	CX
	JNE	chunk

done:
	VZEROUPPER
	SUBQ	vals_base+0(FP), SI
	SHRQ	$3, SI
	MOVQ	SI, n+64(FP)
	MOVQ	R12, next+72(FP)
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL	leaf+0(FP), AX
	MOVL	sub+4(FP), CX
	CPUID
	MOVL	AX, a+8(FP)
	MOVL	BX, b+12(FP)
	MOVL	CX, c+16(FP)
	MOVL	DX, d+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL	$0, CX
	XGETBV
	MOVL	AX, eax+0(FP)
	RET
