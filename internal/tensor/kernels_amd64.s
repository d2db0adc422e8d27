//go:build amd64 && !purego

#include "textflag.h"

// The AVX2 leaf kernels (DESIGN.md §6.3). Each one reproduces a scalar
// Go loop bit for bit: lanes run across independent outputs, every
// output keeps the order of its own sum, and a product and the add that
// consumes it are two instructions, each rounded — there is no fused
// multiply-add in this file. Loads and stores are unaligned; every
// kernel ends in VZEROUPPER.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func accumRowsAVX2(y *float32, n int, a *float32, rows int, w *float32, stride int)
//
// y[x] += a[r]·w[r·stride+x] for x < n (n a positive multiple of 4),
// r = 0..rows-1 in order. Column blocks of 64, 32, 8 and 4 floats stay
// in registers across the whole row loop; the wide blocks exist to keep
// eight (four) independent add chains in flight.
TEXT ·accumRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ rows+24(FP), R8
	MOVQ w+32(FP), DX
	MOVQ stride+40(FP), R9
	SHLQ $2, R9

cols64:
	CMPQ CX, $64
	JLT  cols32
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	VMOVUPS 128(DI), Y4
	VMOVUPS 160(DI), Y5
	VMOVUPS 192(DI), Y6
	VMOVUPS 224(DI), Y7
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12

rows64:
	VBROADCASTSS (R10), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMULPS 32(R11), Y8, Y10
	VADDPS Y10, Y1, Y1
	VMULPS 64(R11), Y8, Y11
	VADDPS Y11, Y2, Y2
	VMULPS 96(R11), Y8, Y12
	VADDPS Y12, Y3, Y3
	VMULPS 128(R11), Y8, Y9
	VADDPS Y9, Y4, Y4
	VMULPS 160(R11), Y8, Y10
	VADDPS Y10, Y5, Y5
	VMULPS 192(R11), Y8, Y11
	VADDPS Y11, Y6, Y6
	VMULPS 224(R11), Y8, Y12
	VADDPS Y12, Y7, Y7
	ADDQ $4, R10
	ADDQ R9, R11
	DECQ R12
	JNZ  rows64
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, CX
	JMP  cols64

cols32:
	CMPQ CX, $32
	JLT  cols8
	VMOVUPS 0(DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12

rows32:
	VBROADCASTSS (R10), Y8
	VMULPS 0(R11), Y8, Y9
	VADDPS Y9, Y0, Y0
	VMULPS 32(R11), Y8, Y10
	VADDPS Y10, Y1, Y1
	VMULPS 64(R11), Y8, Y11
	VADDPS Y11, Y2, Y2
	VMULPS 96(R11), Y8, Y12
	VADDPS Y12, Y3, Y3
	ADDQ $4, R10
	ADDQ R9, R11
	DECQ R12
	JNZ  rows32
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, CX
	JMP  cols32

cols8:
	CMPQ CX, $8
	JLT  cols4
	VMOVUPS (DI), Y0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12

rows8:
	VBROADCASTSS (R10), Y8
	VMULPS (R11), Y8, Y9
	VADDPS Y9, Y0, Y0
	ADDQ $4, R10
	ADDQ R9, R11
	DECQ R12
	JNZ  rows8
	VMOVUPS Y0, (DI)
	ADDQ $32, DI
	ADDQ $32, DX
	SUBQ $8, CX
	JMP  cols8

cols4:
	CMPQ CX, $4
	JLT  accumDone
	VMOVUPS (DI), X0
	MOVQ SI, R10
	MOVQ DX, R11
	MOVQ R8, R12

rows4:
	VBROADCASTSS (R10), X8
	VMULPS (R11), X8, X9
	VADDPS X9, X0, X0
	ADDQ $4, R10
	ADDQ R9, R11
	DECQ R12
	JNZ  rows4
	VMOVUPS X0, (DI)

accumDone:
	VZEROUPPER
	RET

// ZACC: one row's term into the accumulator of the 16 columns at byte
// offset off: acc += Z8·w[off:], the product rounded, then the sum.
#define ZACC(off, acc, tmp) \
	VMULPS off(R11), Z8, tmp; \
	VADDPS tmp, acc, acc

// ZROWS: set up the row loop of one column block: R10 walks a, R11 the
// block's column of w, R12 counts the rows.
#define ZROWS \
	MOVQ SI, R10; \
	MOVQ DX, R11; \
	MOVQ R8, R12

// ZNEXT: step to the next row and loop back to label while rows remain.
#define ZNEXT(label) \
	ADDQ $4, R10; \
	ADDQ R9, R11; \
	DECQ R12; \
	JNZ  label

// func accumRowsAVX512(y *float32, n int, a *float32, rows int, w *float32, stride int)
//
// accumRowsAVX2 in ZMM: y[x] += a[r]·w[r·stride+x] for x < n (n a
// positive multiple of 16), r = 0..rows-1 in order. Blocks of 8 ZMM
// (128 floats) repeat; what is left, under 128, takes at most one block
// each of 6, 4, 2 and 1 ZMM (96/64/32/16 floats).
TEXT ·accumRowsAVX512(SB), NOSPLIT, $0-48
	MOVQ y+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ a+16(FP), SI
	MOVQ rows+24(FP), R8
	MOVQ w+32(FP), DX
	MOVQ stride+40(FP), R9
	SHLQ $2, R9

zcols128:
	CMPQ CX, $128
	JLT  zcols96
	VMOVUPS 0(DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS 192(DI), Z3
	VMOVUPS 256(DI), Z4
	VMOVUPS 320(DI), Z5
	VMOVUPS 384(DI), Z6
	VMOVUPS 448(DI), Z7
	ZROWS

zrows128:
	VBROADCASTSS (R10), Z8
	ZACC(0, Z0, Z16)
	ZACC(64, Z1, Z17)
	ZACC(128, Z2, Z18)
	ZACC(192, Z3, Z19)
	ZACC(256, Z4, Z20)
	ZACC(320, Z5, Z21)
	ZACC(384, Z6, Z22)
	ZACC(448, Z7, Z23)
	ZNEXT(zrows128)
	VMOVUPS Z0, 0(DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	ADDQ $512, DI
	ADDQ $512, DX
	SUBQ $128, CX
	JMP  zcols128

zcols96:
	CMPQ CX, $96
	JLT  zcols64
	VMOVUPS 0(DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS 192(DI), Z3
	VMOVUPS 256(DI), Z4
	VMOVUPS 320(DI), Z5
	ZROWS

zrows96:
	VBROADCASTSS (R10), Z8
	ZACC(0, Z0, Z16)
	ZACC(64, Z1, Z17)
	ZACC(128, Z2, Z18)
	ZACC(192, Z3, Z19)
	ZACC(256, Z4, Z20)
	ZACC(320, Z5, Z21)
	ZNEXT(zrows96)
	VMOVUPS Z0, 0(DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	ADDQ $384, DI
	ADDQ $384, DX
	SUBQ $96, CX

zcols64:
	CMPQ CX, $64
	JLT  zcols32
	VMOVUPS 0(DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS 192(DI), Z3
	ZROWS

zrows64:
	VBROADCASTSS (R10), Z8
	ZACC(0, Z0, Z16)
	ZACC(64, Z1, Z17)
	ZACC(128, Z2, Z18)
	ZACC(192, Z3, Z19)
	ZNEXT(zrows64)
	VMOVUPS Z0, 0(DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, CX

zcols32:
	CMPQ CX, $32
	JLT  zcols16
	VMOVUPS 0(DI), Z0
	VMOVUPS 64(DI), Z1
	ZROWS

zrows32:
	VBROADCASTSS (R10), Z8
	ZACC(0, Z0, Z16)
	ZACC(64, Z1, Z17)
	ZNEXT(zrows32)
	VMOVUPS Z0, 0(DI)
	VMOVUPS Z1, 64(DI)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, CX

zcols16:
	CMPQ CX, $16
	JLT  zaccumDone
	VMOVUPS (DI), Z0
	ZROWS

zrows16:
	VBROADCASTSS (R10), Z8
	ZACC(0, Z0, Z16)
	ZNEXT(zrows16)
	VMOVUPS Z0, (DI)

zaccumDone:
	VZEROUPPER
	RET

// Four-target accumulate: Z24..Z27 hold row r's a[t][r] for targets
// t = 0..3, ZROWS and ZNEXT walk a and the column block of w as above,
// and each block keeps its 4 × (block/16) accumulators across the whole
// row loop. One weight load
// feeds four products: the block is four targets' AccumRows, each
// product and each sum rounded on its own.

// QBCAST: broadcast a[t][r] for the four targets (R10 walks a at t = 0,
// R14 is lda and BX 3·lda in bytes).
#define QBCAST \
	VBROADCASTSS (R10), Z24; \
	VBROADCASTSS (R10)(R14*1), Z25; \
	VBROADCASTSS (R10)(R14*2), Z26; \
	VBROADCASTSS (R10)(BX*1), Z27

// QACC: the 16 columns at byte offset off into the accumulators
// a0..a3 of targets 0..3.
#define QACC(off, a0, a1, a2, a3) \
	VMULPS off(R11), Z24, Z28; \
	VADDPS Z28, a0, a0; \
	VMULPS off(R11), Z25, Z29; \
	VADDPS Z29, a1, a1; \
	VMULPS off(R11), Z26, Z30; \
	VADDPS Z30, a2, a2; \
	VMULPS off(R11), Z27, Z31; \
	VADDPS Z31, a3, a3

// QLOAD, QSTORE: the 16 columns at byte offset off of targets 0..3's y
// rows (DI at t = 0, R13 is ldy and AX 3·ldy in bytes).
#define QLOAD(off, a0, a1, a2, a3) \
	VMOVUPS off(DI), a0; \
	VMOVUPS off(DI)(R13*1), a1; \
	VMOVUPS off(DI)(R13*2), a2; \
	VMOVUPS off(DI)(AX*1), a3

#define QSTORE(off, a0, a1, a2, a3) \
	VMOVUPS a0, off(DI); \
	VMOVUPS a1, off(DI)(R13*1); \
	VMOVUPS a2, off(DI)(R13*2); \
	VMOVUPS a3, off(DI)(AX*1)

// func accumRows4AVX512(y *float32, n, ldy int, a *float32, rows, lda int, w *float32, stride int)
//
// For t = 0..3: y[t·ldy+x] += a[t·lda+r]·w[r·stride+x] for x < n (a
// positive multiple of 16), r = 0..rows-1 in order. Blocks of 96
// columns (24 accumulators) repeat; what is left, under 96, takes at
// most one block each of 64, 32 and 16.
TEXT ·accumRows4AVX512(SB), NOSPLIT, $0-64
	MOVQ y+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ ldy+16(FP), R13
	MOVQ a+24(FP), SI
	MOVQ rows+32(FP), R8
	MOVQ lda+40(FP), R14
	MOVQ w+48(FP), DX
	MOVQ stride+56(FP), R9
	SHLQ $2, R13
	SHLQ $2, R14
	SHLQ $2, R9
	LEAQ (R13)(R13*2), AX
	LEAQ (R14)(R14*2), BX

qcols96:
	CMPQ CX, $96
	JLT  qcols64
	QLOAD(0, Z0, Z6, Z12, Z18)
	QLOAD(64, Z1, Z7, Z13, Z19)
	QLOAD(128, Z2, Z8, Z14, Z20)
	QLOAD(192, Z3, Z9, Z15, Z21)
	QLOAD(256, Z4, Z10, Z16, Z22)
	QLOAD(320, Z5, Z11, Z17, Z23)
	ZROWS

qrows96:
	QBCAST
	QACC(0, Z0, Z6, Z12, Z18)
	QACC(64, Z1, Z7, Z13, Z19)
	QACC(128, Z2, Z8, Z14, Z20)
	QACC(192, Z3, Z9, Z15, Z21)
	QACC(256, Z4, Z10, Z16, Z22)
	QACC(320, Z5, Z11, Z17, Z23)
	ZNEXT(qrows96)
	QSTORE(0, Z0, Z6, Z12, Z18)
	QSTORE(64, Z1, Z7, Z13, Z19)
	QSTORE(128, Z2, Z8, Z14, Z20)
	QSTORE(192, Z3, Z9, Z15, Z21)
	QSTORE(256, Z4, Z10, Z16, Z22)
	QSTORE(320, Z5, Z11, Z17, Z23)
	ADDQ $384, DI
	ADDQ $384, DX
	SUBQ $96, CX
	JMP  qcols96

qcols64:
	CMPQ CX, $64
	JLT  qcols32
	QLOAD(0, Z0, Z4, Z8, Z12)
	QLOAD(64, Z1, Z5, Z9, Z13)
	QLOAD(128, Z2, Z6, Z10, Z14)
	QLOAD(192, Z3, Z7, Z11, Z15)
	ZROWS

qrows64:
	QBCAST
	QACC(0, Z0, Z4, Z8, Z12)
	QACC(64, Z1, Z5, Z9, Z13)
	QACC(128, Z2, Z6, Z10, Z14)
	QACC(192, Z3, Z7, Z11, Z15)
	ZNEXT(qrows64)
	QSTORE(0, Z0, Z4, Z8, Z12)
	QSTORE(64, Z1, Z5, Z9, Z13)
	QSTORE(128, Z2, Z6, Z10, Z14)
	QSTORE(192, Z3, Z7, Z11, Z15)
	ADDQ $256, DI
	ADDQ $256, DX
	SUBQ $64, CX

qcols32:
	CMPQ CX, $32
	JLT  qcols16
	QLOAD(0, Z0, Z2, Z4, Z6)
	QLOAD(64, Z1, Z3, Z5, Z7)
	ZROWS

qrows32:
	QBCAST
	QACC(0, Z0, Z2, Z4, Z6)
	QACC(64, Z1, Z3, Z5, Z7)
	ZNEXT(qrows32)
	QSTORE(0, Z0, Z2, Z4, Z6)
	QSTORE(64, Z1, Z3, Z5, Z7)
	ADDQ $128, DI
	ADDQ $128, DX
	SUBQ $32, CX

qcols16:
	CMPQ CX, $16
	JLT  qaccumDone
	QLOAD(0, Z0, Z1, Z2, Z3)
	ZROWS

qrows16:
	QBCAST
	QACC(0, Z0, Z1, Z2, Z3)
	ZNEXT(qrows16)
	QSTORE(0, Z0, Z1, Z2, Z3)

qaccumDone:
	VZEROUPPER
	RET

// func dotRowsAVX2(out *float32, q *float32, n int, z *float32, stride int, slots *int, cnt int)
//
// out[j] = (s0+s1)+(s2+s3) over the first n (a positive multiple of 4)
// elements of q·z[j·stride:], for j = slots[0..cnt) (cnt a positive
// multiple of 4), where lane l of a slot's XMM accumulator holds
// s_l = Σ q[4t+l]·z[j·stride+4t+l], t ascending: the four partial sums
// of the scalar dot, four slots in flight, every group of four in the
// one call.
TEXT ·dotRowsAVX2(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ z+24(FP), DX
	MOVQ stride+32(FP), BX
	MOVQ slots+40(FP), R12
	MOVQ cnt+48(FP), R13
	SHLQ $2, CX
	SHLQ $2, BX

dotGroup:
	MOVQ 0(R12), R8
	MOVQ 8(R12), R9
	MOVQ 16(R12), R10
	MOVQ 24(R12), R11
	IMULQ BX, R8
	IMULQ BX, R9
	IMULQ BX, R10
	IMULQ BX, R11
	ADDQ DX, R8
	ADDQ DX, R9
	ADDQ DX, R10
	ADDQ DX, R11
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3
	XORQ AX, AX

dotLoop:
	VMOVUPS (SI)(AX*1), X4
	VMULPS (R8)(AX*1), X4, X5
	VADDPS X5, X0, X0
	VMULPS (R9)(AX*1), X4, X6
	VADDPS X6, X1, X1
	VMULPS (R10)(AX*1), X4, X7
	VADDPS X7, X2, X2
	VMULPS (R11)(AX*1), X4, X8
	VADDPS X8, X3, X3
	ADDQ $16, AX
	CMPQ AX, CX
	JLT  dotLoop

	// [a0+a1 a2+a3 b0+b1 b2+b3], [c.. d..], then one more pairwise add.
	VHADDPS X1, X0, X0
	VHADDPS X3, X2, X2
	VHADDPS X2, X0, X0
	MOVQ 0(R12), R8
	MOVQ 8(R12), R9
	MOVQ 16(R12), R10
	MOVQ 24(R12), R11
	VMOVSS X0, (DI)(R8*4)
	VEXTRACTPS $1, X0, (DI)(R9*4)
	VEXTRACTPS $2, X0, (DI)(R10*4)
	VEXTRACTPS $3, X0, (DI)(R11*4)
	ADDQ $32, R12
	SUBQ $4, R13
	JNZ  dotGroup
	VZEROUPPER
	RET

// func prefetchRows(data *float32, w int, idx *int32, n int)
//
// PREFETCHT1 on every cache line of rows idx[0..n) of the row-major
// data, w floats a row (n and w positive). A prefetch reads nothing into
// a register and never faults.
TEXT ·prefetchRows(SB), NOSPLIT, $0-32
	MOVQ data+0(FP), SI
	MOVQ w+8(FP), CX
	MOVQ idx+16(FP), DX
	MOVQ n+24(FP), R8
	SHLQ $2, CX

pfRow:
	MOVLQSX (DX), AX
	IMULQ CX, AX
	LEAQ (SI)(AX*1), R9
	LEAQ (R9)(CX*1), R10
	ANDQ $-64, R9

pfLine:
	PREFETCHT1 (R9)
	ADDQ $64, R9
	CMPQ R9, R10
	JLT  pfLine
	ADDQ $4, DX
	DECQ R8
	JNZ  pfRow
	RET

// func transposeAVX2(dst *float32, dstStride int, src *float32, srcStride int, rows, cols int)
//
// dst[c·dstStride+r] = src[r·srcStride+c] for r < rows, c < cols, both
// positive multiples of 8: 8×8 blocks transposed in registers.
TEXT ·transposeAVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ dstStride+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ srcStride+24(FP), R9
	MOVQ rows+32(FP), R10
	MOVQ cols+40(FP), R11
	SHLQ $2, R8
	SHLQ $2, R9

trRows:
	MOVQ SI, R12
	MOVQ DI, R13
	MOVQ R11, CX

trCols:
	MOVQ R12, AX
	VMOVUPS (AX), Y0
	ADDQ R9, AX
	VMOVUPS (AX), Y1
	ADDQ R9, AX
	VMOVUPS (AX), Y2
	ADDQ R9, AX
	VMOVUPS (AX), Y3
	ADDQ R9, AX
	VMOVUPS (AX), Y4
	ADDQ R9, AX
	VMOVUPS (AX), Y5
	ADDQ R9, AX
	VMOVUPS (AX), Y6
	ADDQ R9, AX
	VMOVUPS (AX), Y7
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15
	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7
	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15
	MOVQ R13, AX
	VMOVUPS Y8, (AX)
	ADDQ R8, AX
	VMOVUPS Y9, (AX)
	ADDQ R8, AX
	VMOVUPS Y10, (AX)
	ADDQ R8, AX
	VMOVUPS Y11, (AX)
	ADDQ R8, AX
	VMOVUPS Y12, (AX)
	ADDQ R8, AX
	VMOVUPS Y13, (AX)
	ADDQ R8, AX
	VMOVUPS Y14, (AX)
	ADDQ R8, AX
	VMOVUPS Y15, (AX)
	ADDQ $32, R12
	LEAQ (R13)(R8*8), R13
	SUBQ $8, CX
	JNZ  trCols
	LEAQ (SI)(R9*8), SI
	ADDQ $32, DI
	SUBQ $8, R10
	JNZ  trRows
	VZEROUPPER
	RET

// Constants of cosRowAVX2, each replicated across the four float64
// lanes (the two int32 ones across four int32 lanes): math.cos's own.
#define QUAD(name, v) \
	DATA name<>+0(SB)/8, v; \
	DATA name<>+8(SB)/8, v; \
	DATA name<>+16(SB)/8, v; \
	DATA name<>+24(SB)/8, v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

QUAD(cosAbs, $0x7fffffffffffffff)
QUAD(cosLimit, $0x41b0000000000000) // 2^28
QUAD(cosFourOverPi, $0x3ff45f306dc9c883) // float64(4/Pi)
QUAD(cosPI4A, $0x3fe921fb40000000)
QUAD(cosPI4B, $0x3e64442d00000000)
QUAD(cosPI4C, $0x3ce8469898cc5170)
QUAD(cosHalf, $0x3fe0000000000000)
QUAD(cosOne, $0x3ff0000000000000)
QUAD(cosS0, $0x3de5d8fd1fd19ccd)
QUAD(cosS1, $0xbe5ae5e5a9291f5d)
QUAD(cosS2, $0x3ec71de3567d48a1)
QUAD(cosS3, $0xbf2a01a019bfdf03)
QUAD(cosS4, $0x3f8111111110f7d0)
QUAD(cosS5, $0xbfc5555555555548)
QUAD(cosC0, $0xbda8fa49a0861a9b)
QUAD(cosC1, $0x3e21ee9d7b4e3f05)
QUAD(cosC2, $0xbe927e4f7eac4bc6)
QUAD(cosC3, $0x3efa01a019c844f5)
QUAD(cosC4, $0xbf56c16c16c14f91)
QUAD(cosC5, $0x3fa555555555554b)
QUAD(cosInt1, $0x0000000100000001)
QUAD(cosInt2, $0x0000000200000002)

// COSARG: x = |dt·float64(ω) + float64(φ)| for four columns at byte
// offset off+AX; lanes where !(x < 2^28) — NaN included — are or-ed
// into Y14.
#define COSARG(off, X, T) \
	VCVTPS2PD off(SI)(AX*1), X; \
	VMULPD Y15, X, X; \
	VCVTPS2PD off(DX)(AX*1), T; \
	VADDPD T, X, X; \
	VANDPD cosAbs<>(SB), X, X; \
	VCMPPD $5, cosLimit<>(SB), X, T; \
	VORPD T, Y14, Y14

// COSREDUCE: j = trunc(x·4/π) rounded up to even (int32 lanes of JX),
// z = ((x − y·PI4A) − y·PI4B) − y·PI4C with y = float64(j), zz = z·z.
#define COSREDUCE(X, ZZ, JX, T, U, UX) \
	VMULPD cosFourOverPi<>(SB), X, T; \
	VCVTTPD2DQY T, JX; \
	VPAND cosInt1<>(SB), JX, UX; \
	VPADDD UX, JX, JX; \
	VCVTDQ2PD JX, T; \
	VMULPD cosPI4A<>(SB), T, U; \
	VSUBPD U, X, X; \
	VMULPD cosPI4B<>(SB), T, U; \
	VSUBPD U, X, X; \
	VMULPD cosPI4C<>(SB), T, U; \
	VSUBPD U, X, X; \
	VMULPD X, X, ZZ

// COSPOLY: P = (((((c0·zz + c1)·zz + c2)·zz + c3)·zz + c4)·zz + c5.
#define COSPOLY(ZZ, P, c0, c1, c2, c3, c4, c5) \
	VMULPD c0<>(SB), ZZ, P; \
	VADDPD c1<>(SB), P, P; \
	VMULPD ZZ, P, P; \
	VADDPD c2<>(SB), P, P; \
	VMULPD ZZ, P, P; \
	VADDPD c3<>(SB), P, P; \
	VMULPD ZZ, P, P; \
	VADDPD c4<>(SB), P, P; \
	VMULPD ZZ, P, P; \
	VADDPD c5<>(SB), P, P

// COSFINISH: sin form z + (z·zz)·P where j&2, else the cos form
// (1 − 0.5·zz) + (zz·zz)·Q; negated where (j>>2 ^ j>>1)&1; narrowed to
// float32 and stored.
#define COSFINISH(off, X, ZZ, JX, P, Q, QX, T, TX, U, UX) \
	VMULPD ZZ, X, T; \
	VMULPD P, T, T; \
	VADDPD T, X, P; \
	VMULPD cosHalf<>(SB), ZZ, T; \
	VMOVUPD cosOne<>(SB), U; \
	VSUBPD T, U, U; \
	VMULPD ZZ, ZZ, T; \
	VMULPD Q, T, T; \
	VADDPD T, U, Q; \
	VPAND cosInt2<>(SB), JX, TX; \
	VPCMPEQD cosInt2<>(SB), TX, TX; \
	VPMOVSXDQ TX, T; \
	VBLENDVPD T, P, Q, Q; \
	VPSRLD $1, JX, TX; \
	VPSRLD $2, JX, UX; \
	VPXOR UX, TX, TX; \
	VPMOVZXDQ TX, T; \
	VPSLLQ $63, T, T; \
	VXORPD T, Q, Q; \
	VCVTPD2PSY Q, QX; \
	VMOVUPS QX, off(DI)(AX*1)

// func cosRowAVX2(dst *float32, n int, dt float64, omega, phi *float32) (ok bool)
//
// dst[j] = float32(cos(dt·float64(omega[j]) + float64(phi[j]))) for
// j < n (a positive multiple of 8), following math.cos below its
// Payne–Hanek threshold step for step in four float64 lanes. Two
// four-lane groups are interleaved per iteration: one group's chain of
// dependent operations is too long for a single group to beat the
// scalar code. ok is false when some argument is NaN, ±Inf or ≥ 2^28 in
// magnitude; dst is then unspecified and the caller takes the row
// through math.Cos.
TEXT ·cosRowAVX2(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD dt+16(FP), Y15
	MOVQ omega+24(FP), SI
	MOVQ phi+32(FP), DX
	VXORPD Y14, Y14, Y14
	SHLQ $2, CX
	XORQ AX, AX

cosLoop:
	COSARG(0, Y0, Y5)
	COSARG(16, Y7, Y12)
	COSREDUCE(Y0, Y1, X2, Y5, Y6, X6)
	COSREDUCE(Y7, Y8, X9, Y12, Y13, X13)
	COSPOLY(Y1, Y3, cosS0, cosS1, cosS2, cosS3, cosS4, cosS5)
	COSPOLY(Y8, Y10, cosS0, cosS1, cosS2, cosS3, cosS4, cosS5)
	COSPOLY(Y1, Y4, cosC0, cosC1, cosC2, cosC3, cosC4, cosC5)
	COSPOLY(Y8, Y11, cosC0, cosC1, cosC2, cosC3, cosC4, cosC5)
	COSFINISH(0, Y0, Y1, X2, Y3, Y4, X4, Y5, X5, Y6, X6)
	COSFINISH(16, Y7, Y8, X9, Y10, Y11, X11, Y12, X12, Y13, X13)
	ADDQ $32, AX
	CMPQ AX, CX
	JLT  cosLoop
	VMOVMSKPD Y14, AX
	TESTL AX, AX
	SETEQ ok+40(FP)
	VZEROUPPER
	RET

// The AVX-512F forms of COSARG, COSREDUCE and COSFINISH: eight float64
// lanes in a ZMM, the float constants broadcast from the first eight
// bytes of the tables above, the int32 lanes of j eight to a YMM and
// still VEX (their registers stay below Y16). A bad argument sets its
// bit in K, or-ed into K3; the sin/cos choice and the sign take the
// same bits of j as in COSFINISH.
#define ZCOSARG(off, X, T, K) \
	VCVTPS2PD off(SI)(AX*1), X; \
	VMULPD Z15, X, X; \
	VCVTPS2PD off(DX)(AX*1), T; \
	VADDPD T, X, X; \
	VPANDQ.BCST cosAbs<>(SB), X, X; \
	VCMPPD.BCST $5, cosLimit<>(SB), X, K; \
	KORW K, K3, K3

#define ZCOSREDUCE(X, ZZ, JY, T, U, UY) \
	VMULPD.BCST cosFourOverPi<>(SB), X, T; \
	VCVTTPD2DQ T, JY; \
	VPAND cosInt1<>(SB), JY, UY; \
	VPADDD UY, JY, JY; \
	VCVTDQ2PD JY, T; \
	VMULPD.BCST cosPI4A<>(SB), T, U; \
	VSUBPD U, X, X; \
	VMULPD.BCST cosPI4B<>(SB), T, U; \
	VSUBPD U, X, X; \
	VMULPD.BCST cosPI4C<>(SB), T, U; \
	VSUBPD U, X, X; \
	VMULPD X, X, ZZ

#define ZCOSPOLY(ZZ, P, c0, c1, c2, c3, c4, c5) \
	VMULPD.BCST c0<>(SB), ZZ, P; \
	VADDPD.BCST c1<>(SB), P, P; \
	VMULPD ZZ, P, P; \
	VADDPD.BCST c2<>(SB), P, P; \
	VMULPD ZZ, P, P; \
	VADDPD.BCST c3<>(SB), P, P; \
	VMULPD ZZ, P, P; \
	VADDPD.BCST c4<>(SB), P, P; \
	VMULPD ZZ, P, P; \
	VADDPD.BCST c5<>(SB), P, P

#define ZCOSFINISH(off, X, ZZ, JY, P, Q, QY, T, TY, U, UY, K) \
	VMULPD ZZ, X, T; \
	VMULPD P, T, T; \
	VADDPD T, X, P; \
	VMULPD.BCST cosHalf<>(SB), ZZ, T; \
	VBROADCASTSD cosOne<>(SB), U; \
	VSUBPD T, U, U; \
	VMULPD ZZ, ZZ, T; \
	VMULPD Q, T, T; \
	VADDPD T, U, Q; \
	VPAND cosInt2<>(SB), JY, TY; \
	VPMOVZXDQ TY, T; \
	VPTESTMQ T, T, K; \
	VBLENDMPD P, Q, K, Q; \
	VPSRLD $1, JY, TY; \
	VPSRLD $2, JY, UY; \
	VPXOR UY, TY, TY; \
	VPMOVZXDQ TY, T; \
	VPSLLQ $63, T, T; \
	VPXORQ T, Q, Q; \
	VCVTPD2PS Q, QY; \
	VMOVUPS QY, off(DI)(AX*1)

// func cosRowAVX512(dst *float32, n int, dt float64, omega, phi *float32) (ok bool)
//
// cosRowAVX2 in two interleaved eight-lane groups: dst[j] for j < n (a
// positive multiple of 16), each lane the same float64 steps as there.
// ok is false when some argument is NaN, ±Inf or ≥ 2^28 in magnitude.
TEXT ·cosRowAVX512(SB), NOSPLIT, $0-41
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), CX
	VBROADCASTSD dt+16(FP), Z15
	MOVQ omega+24(FP), SI
	MOVQ phi+32(FP), DX
	KXORW K3, K3, K3
	SHLQ $2, CX
	XORQ AX, AX

zcosLoop:
	ZCOSARG(0, Z0, Z5, K1)
	ZCOSARG(32, Z7, Z12, K2)
	ZCOSREDUCE(Z0, Z1, Y2, Z5, Z6, Y6)
	ZCOSREDUCE(Z7, Z8, Y9, Z12, Z13, Y13)
	ZCOSPOLY(Z1, Z3, cosS0, cosS1, cosS2, cosS3, cosS4, cosS5)
	ZCOSPOLY(Z8, Z10, cosS0, cosS1, cosS2, cosS3, cosS4, cosS5)
	ZCOSPOLY(Z1, Z4, cosC0, cosC1, cosC2, cosC3, cosC4, cosC5)
	ZCOSPOLY(Z8, Z11, cosC0, cosC1, cosC2, cosC3, cosC4, cosC5)
	ZCOSFINISH(0, Z0, Z1, Y2, Z3, Z4, Y4, Z5, Y5, Z6, Y6, K1)
	ZCOSFINISH(32, Z7, Z8, Y9, Z10, Z11, Y11, Z12, Y12, Z13, Y13, K2)
	ADDQ $64, AX
	CMPQ AX, CX
	JLT  zcosLoop
	KORTESTW K3, K3
	SETEQ ok+40(FP)
	VZEROUPPER
	RET
