//go:build amd64 && !purego

#include "textflag.h"

// AVX2 forms of the hot butterflies. A YMM register holds two complex128
// values (re, im, re, im): two adjacent lanes q, q+1 of a Stockham pass,
// or one element from each of two rows of a DFT-8 batch. Every kernel
// returns the bits of its Go twin in kernels.go / codelet.go / demod.go:
// the repository's kernels fuse a multiply and an add only where the Go
// twin calls math.FMA, and these twins never do, so every product here
// is rounded before it is added and every sum associates as the Go
// source does. The Go wrappers in simd.go are the only callers and
// the only bounds checks.

// Sign bit of the imaginary (odd) elements.
DATA signOdd<>+0(SB)/8, $0x0000000000000000
DATA signOdd<>+8(SB)/8, $0x8000000000000000
DATA signOdd<>+16(SB)/8, $0x0000000000000000
DATA signOdd<>+24(SB)/8, $0x8000000000000000
GLOBL signOdd<>(SB), RODATA|NOPTR, $32

// rt = 0.7071067811865476, the √2/2 of stageRadix8, as (rt, rt) and as
// (rt, −rt).
DATA rtBoth<>+0(SB)/8, $0x3FE6A09E667F3BCD
DATA rtBoth<>+8(SB)/8, $0x3FE6A09E667F3BCD
DATA rtBoth<>+16(SB)/8, $0x3FE6A09E667F3BCD
DATA rtBoth<>+24(SB)/8, $0x3FE6A09E667F3BCD
GLOBL rtBoth<>(SB), RODATA|NOPTR, $32

DATA rtConj<>+0(SB)/8, $0x3FE6A09E667F3BCD
DATA rtConj<>+8(SB)/8, $0xBFE6A09E667F3BCD
DATA rtConj<>+16(SB)/8, $0x3FE6A09E667F3BCD
DATA rtConj<>+24(SB)/8, $0xBFE6A09E667F3BCD
GLOBL rtConj<>(SB), RODATA|NOPTR, $32

// func cpuSIMD() (avx2FMA, avx512F bool)
//
// AVX2 and FMA are usable when the CPU reports them (CPUID.7.0:EBX bit 5,
// CPUID.1:ECX bit 12) and the OS saves the YMM state (CPUID.1:ECX
// OSXSAVE+AVX, then XCR0 bits 1 and 2). AVX-512F is usable on top of
// them when the CPU reports it (CPUID.7.0:EBX bit 16) and the OS also
// saves the opmask and all 512 bits of all 32 vector registers (XCR0
// bits 5, 6 and 7).
TEXT ·cpuSIMD(SB), NOSPLIT, $0-2
	MOVB $0, avx2FMA+0(FP)
	MOVB $0, avx512F+1(FP)
	MOVL $0, AX
	MOVL $0, CX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	MOVL $0, CX
	CPUID
	ANDL $0x18001000, CX // OSXSAVE | AVX | FMA
	CMPL CX, $0x18001000
	JNE  done
	MOVL $0, CX
	XGETBV
	MOVL AX, SI // XCR0, for the AVX-512 check
	ANDL $6, AX // XMM | YMM state enabled
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	TESTL $0x20, BX // AVX2
	JZ   done
	MOVB $1, avx2FMA+0(FP)
	TESTL $0x10000, BX // AVX-512F
	JZ   done
	ANDL $0xE0, SI // opmask | ZMM_Hi256 | Hi16_ZMM state enabled
	CMPL SI, $0xE0
	JNE  done
	MOVB $1, avx512F+1(FP)
done:
	RET

// NEGI multiplies z by −i: (re, im) → (im, −re). Y15 holds signOdd.
#define NEGI(z) \
	VPERMILPD $5, z, z \
	VXORPD    Y15, z, z

// TWMUL multiplies z by the twiddle at off(DX), clobbering ta and tb:
// (zr·wr − zi·wi, zi·wr + zr·wi), each product rounded before the
// add/subtract as in Go's complex multiply.
#define TWMUL(off, z, ta, tb) \
	VBROADCASTSD off(DX), ta     \
	VBROADCASTSD off+8(DX), tb   \
	VMULPD       ta, z, ta       \
	VPERMILPD    $5, z, z        \
	VMULPD       tb, z, z        \
	VADDSUBPD    z, ta, z

// BFLY8 is the radix-8 butterfly of stageRadix8/codelet8 without the
// twiddles. In: a0..a7 in Y0..Y7, signOdd in Y15, rtBoth in Y14, rtConj in
// Y13. Out: outputs 0..7 in Y2, Y4, Y3, Y7, Y0, Y1, Y10, Y6; Y5, Y8, Y9,
// Y11 and Y12 are free afterwards.
#define BFLY8 \
	VADDPD    Y4, Y0, Y8     /* b0 = a0+a4 */ \
	VSUBPD    Y4, Y0, Y4     /* d0 = a0−a4 */ \
	VADDPD    Y5, Y1, Y9     /* b1 */ \
	VSUBPD    Y5, Y1, Y5     /* t1 = a1−a5 */ \
	VADDPD    Y6, Y2, Y10    /* b2 */ \
	VSUBPD    Y6, Y2, Y6     /* t2 = a2−a6 */ \
	VADDPD    Y7, Y3, Y11    /* b3 */ \
	VSUBPD    Y7, Y3, Y7     /* t3 = a3−a7 */ \
	VADDPD    Y10, Y8, Y0    /* c0 = b0+b2 */ \
	VSUBPD    Y10, Y8, Y10   /* c1 = b0−b2 */ \
	VADDPD    Y11, Y9, Y1    /* c2 = b1+b3 */ \
	VSUBPD    Y11, Y9, Y11   /* b1−b3 */ \
	NEGI(Y11)                /* c3 */ \
	VADDPD    Y1, Y0, Y2     /* out0 = c0+c2 */ \
	VSUBPD    Y1, Y0, Y0     /* out4 = c0−c2 */ \
	VADDPD    Y11, Y10, Y3   /* out2 = c1+c3 */ \
	VSUBPD    Y11, Y10, Y10  /* out6 = c1−c3 */ \
	VPERMILPD $5, Y5, Y8     \
	VADDSUBPD Y5, Y8, Y8     /* (im−re, re+im) of t1 */ \
	VPERMILPD $5, Y8, Y8     \
	VMULPD    Y14, Y8, Y8    /* d1 = t1·ω8 */ \
	VPERMILPD $5, Y7, Y9     \
	VADDSUBPD Y7, Y9, Y9     /* (im−re, re+im) of t3 */ \
	VMULPD    Y13, Y9, Y9    /* d3 = t3·ω8³ */ \
	NEGI(Y6)                 /* d2 = −i·t2 */ \
	VADDPD    Y6, Y4, Y1     /* e0 = d0+d2 */ \
	VSUBPD    Y6, Y4, Y6     /* e1 = d0−d2 */ \
	VADDPD    Y9, Y8, Y5     /* e2 = d1+d3 */ \
	VSUBPD    Y9, Y8, Y9     /* d1−d3 */ \
	NEGI(Y9)                 /* e3 */ \
	VADDPD    Y5, Y1, Y4     /* out1 = e0+e2 */ \
	VSUBPD    Y5, Y1, Y1     /* out5 = e0−e2 */ \
	VADDPD    Y9, Y6, Y7     /* out3 = e1+e3 */ \
	VSUBPD    Y9, Y6, Y6     /* out7 = e1−e3 */

// The lane kernels share one frame: SI walks the inputs and DI the
// outputs two lanes at a time, R8 is the byte distance between input
// components (16·m·s), R11 between output frequencies (16·s), R9 and R12
// three times those, DX the sub-block's twiddles, BX = s/2 vectors per
// sub-block, AX the sub-blocks left. After a sub-block's lane loop SI
// already points at the next sub-block's inputs; DI has moved one of the
// r output rows and is advanced over the rest.
//
// LANEFRAME derives it from BX = s and R8 = m as loaded from the
// arguments (the loads stay in each function, where vet checks them).
#define LANEFRAME \
	IMULQ BX, R8            \
	SHLQ  $4, R8            \
	LEAQ  (R8)(R8*2), R9    \
	MOVQ  BX, R11           \
	SHLQ  $4, R11           \
	LEAQ  (R11)(R11*2), R12 \
	SHRQ  $1, BX            \
	VMOVUPD signOdd<>(SB), Y15

// func stage8LanesAVX2(x, y, tw *complex128, s, m, count int)
TEXT ·stage8LanesAVX2(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ tw+16(FP), DX
	MOVQ s+24(FP), BX
	MOVQ m+32(FP), R8
	MOVQ count+40(FP), AX
	LANEFRAME
	VMOVUPD rtBoth<>(SB), Y14
	VMOVUPD rtConj<>(SB), Y13
block8:
	LEAQ (SI)(R8*4), R10  // components 4..7
	LEAQ (DI)(R11*4), R13 // frequencies 4..7
	MOVQ BX, CX
lane8:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (SI)(R9*1), Y3
	VMOVUPD (R10), Y4
	VMOVUPD (R10)(R8*1), Y5
	VMOVUPD (R10)(R8*2), Y6
	VMOVUPD (R10)(R9*1), Y7
	BFLY8
	VMOVUPD Y2, (DI)
	TWMUL(0, Y4, Y8, Y9)
	VMOVUPD Y4, (DI)(R11*1)
	TWMUL(16, Y3, Y11, Y12)
	VMOVUPD Y3, (DI)(R11*2)
	TWMUL(32, Y7, Y8, Y9)
	VMOVUPD Y7, (DI)(R12*1)
	TWMUL(48, Y0, Y11, Y12)
	VMOVUPD Y0, (R13)
	TWMUL(64, Y1, Y8, Y9)
	VMOVUPD Y1, (R13)(R11*1)
	TWMUL(80, Y10, Y11, Y12)
	VMOVUPD Y10, (R13)(R11*2)
	TWMUL(96, Y6, Y8, Y9)
	VMOVUPD Y6, (R13)(R12*1)
	ADDQ $32, SI
	ADDQ $32, R10
	ADDQ $32, DI
	ADDQ $32, R13
	DECQ CX
	JNZ  lane8
	LEAQ (DI)(R12*2), DI
	ADDQ R11, DI
	ADDQ $112, DX
	DECQ AX
	JNZ  block8
	VZEROUPPER
	RET

// TWMUL2 is TWMUL for two lanes that are two sub-blocks p, p+1 of a
// stride-1 pass: the low half of z takes the twiddle at off(DX), the high
// half the one 112 bytes (one sub-block's seven twiddles) further on.
#define TWMUL2(off, z, xa, ya, yb) \
	VMOVUPD     off(DX), xa             \
	VINSERTF128 $1, off+112(DX), ya, ya \
	VPERMILPD   $0xF, ya, yb            \
	VMOVDDUP    ya, ya                  \
	VMULPD      ya, z, ya               \
	VPERMILPD   $5, z, z                \
	VMULPD      yb, z, z                \
	VADDSUBPD   z, ya, z

// func stage8FirstAVX2(x, y, tw *complex128, m, pairs int)
//
// The stride-1 (first) radix-8 pass, sub-blocks p and p+1 to a vector:
// their inputs x[p+t·m], x[p+1+t·m] are adjacent, their outputs are the
// two 8-element rows at y[8p] and their twiddles differ per half.
TEXT ·stage8FirstAVX2(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ tw+16(FP), DX
	MOVQ m+24(FP), R8
	MOVQ pairs+32(FP), CX
	SHLQ $4, R8
	LEAQ (R8)(R8*2), R9
	VMOVUPD signOdd<>(SB), Y15
	VMOVUPD rtBoth<>(SB), Y14
	VMOVUPD rtConj<>(SB), Y13
first8:
	LEAQ (SI)(R8*4), R10
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (SI)(R9*1), Y3
	VMOVUPD (R10), Y4
	VMOVUPD (R10)(R8*1), Y5
	VMOVUPD (R10)(R8*2), Y6
	VMOVUPD (R10)(R9*1), Y7
	BFLY8
	VMOVUPD      X2, (DI)
	VEXTRACTF128 $1, Y2, 128(DI)
	TWMUL2(0, Y4, X8, Y8, Y9)
	VMOVUPD      X4, 16(DI)
	VEXTRACTF128 $1, Y4, 144(DI)
	TWMUL2(16, Y3, X11, Y11, Y12)
	VMOVUPD      X3, 32(DI)
	VEXTRACTF128 $1, Y3, 160(DI)
	TWMUL2(32, Y7, X8, Y8, Y9)
	VMOVUPD      X7, 48(DI)
	VEXTRACTF128 $1, Y7, 176(DI)
	TWMUL2(48, Y0, X11, Y11, Y12)
	VMOVUPD      X0, 64(DI)
	VEXTRACTF128 $1, Y0, 192(DI)
	TWMUL2(64, Y1, X8, Y8, Y9)
	VMOVUPD      X1, 80(DI)
	VEXTRACTF128 $1, Y1, 208(DI)
	TWMUL2(80, Y10, X11, Y11, Y12)
	VMOVUPD      X10, 96(DI)
	VEXTRACTF128 $1, Y10, 224(DI)
	TWMUL2(96, Y6, X8, Y8, Y9)
	VMOVUPD      X6, 112(DI)
	VEXTRACTF128 $1, Y6, 240(DI)
	ADDQ $32, SI
	ADDQ $256, DI
	ADDQ $224, DX
	DECQ CX
	JNZ  first8
	VZEROUPPER
	RET

// func stage4LanesAVX2(x, y, tw *complex128, s, m, count int)
TEXT ·stage4LanesAVX2(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ tw+16(FP), DX
	MOVQ s+24(FP), BX
	MOVQ m+32(FP), R8
	MOVQ count+40(FP), AX
	LANEFRAME
block4:
	MOVQ BX, CX
lane4:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (SI)(R9*1), Y3
	VADDPD  Y2, Y0, Y4 // t0 = a+c
	VSUBPD  Y2, Y0, Y0 // t1 = a−c
	VADDPD  Y3, Y1, Y5 // t2 = b+d
	VSUBPD  Y3, Y1, Y1 // b−d
	NEGI(Y1)           // t3
	VADDPD  Y5, Y4, Y2 // out0 = t0+t2
	VSUBPD  Y5, Y4, Y4 // out2 = t0−t2
	VADDPD  Y1, Y0, Y3 // out1 = t1+t3
	VSUBPD  Y1, Y0, Y0 // out3 = t1−t3
	VMOVUPD Y2, (DI)
	TWMUL(0, Y3, Y8, Y9)
	VMOVUPD Y3, (DI)(R11*1)
	TWMUL(16, Y4, Y10, Y11)
	VMOVUPD Y4, (DI)(R11*2)
	TWMUL(32, Y0, Y8, Y9)
	VMOVUPD Y0, (DI)(R12*1)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  lane4
	ADDQ R12, DI
	ADDQ $48, DX
	DECQ AX
	JNZ  block4
	VZEROUPPER
	RET

// func stage5LanesAVX2(x, y, tw *complex128, s, m, count int)
//
// The constants are the Go kernel's own table, radix5Consts = {c1, s1,
// c2, s2}, so both kernels multiply by the same bits.
TEXT ·stage5LanesAVX2(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ tw+16(FP), DX
	MOVQ s+24(FP), BX
	MOVQ m+32(FP), R8
	MOVQ count+40(FP), AX
	LANEFRAME
	VBROADCASTSD ·radix5Consts+0(SB), Y12  // c1
	VBROADCASTSD ·radix5Consts+8(SB), Y13  // s1
	VBROADCASTSD ·radix5Consts+16(SB), Y14 // c2
	VBROADCASTSD ·radix5Consts+24(SB), Y11 // s2
block5:
	MOVQ BX, CX
lane5:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (SI)(R9*1), Y3
	VMOVUPD (SI)(R8*4), Y4
	VADDPD  Y4, Y1, Y5  // t1 = a1+a4
	VSUBPD  Y4, Y1, Y1  // t3 = a1−a4
	VADDPD  Y3, Y2, Y6  // t2 = a2+a3
	VSUBPD  Y3, Y2, Y2  // t4 = a2−a3
	VADDPD  Y5, Y0, Y3
	VADDPD  Y6, Y3, Y3  // out0 = a0+t1+t2
	VMOVUPD Y3, (DI)
	VMULPD  Y12, Y5, Y3
	VADDPD  Y3, Y0, Y3
	VMULPD  Y14, Y6, Y4
	VADDPD  Y4, Y3, Y3  // m1 = a0 + c1·t1 + c2·t2
	VMULPD  Y14, Y5, Y4
	VADDPD  Y4, Y0, Y4
	VMULPD  Y12, Y6, Y7
	VADDPD  Y7, Y4, Y4  // m2 = a0 + c2·t1 + c1·t2
	VMULPD  Y13, Y1, Y5
	VMULPD  Y11, Y2, Y6
	VADDPD  Y6, Y5, Y5  // u = s1·t3 + s2·t4
	VMULPD  Y11, Y1, Y6
	VMULPD  Y13, Y2, Y7
	VSUBPD  Y7, Y6, Y6  // v = s2·t3 − s1·t4
	NEGI(Y5)            // n1 = −i·u
	NEGI(Y6)            // n2 = −i·v
	VADDPD  Y5, Y3, Y0  // m1+n1
	VSUBPD  Y5, Y3, Y3  // m1−n1
	VADDPD  Y6, Y4, Y1  // m2+n2
	VSUBPD  Y6, Y4, Y4  // m2−n2
	TWMUL(0, Y0, Y7, Y8)
	VMOVUPD Y0, (DI)(R11*1)
	TWMUL(16, Y1, Y9, Y10)
	VMOVUPD Y1, (DI)(R11*2)
	TWMUL(32, Y4, Y7, Y8)
	VMOVUPD Y4, (DI)(R12*1)
	TWMUL(48, Y3, Y9, Y10)
	VMOVUPD Y3, (DI)(R11*4)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  lane5
	LEAQ (DI)(R11*4), DI
	ADDQ $64, DX
	DECQ AX
	JNZ  block5
	VZEROUPPER
	RET

// WMUL multiplies z by the per-lane factors at wp, clobbering ta and tb:
// (zr·wr − zi·wi, zr·wi + zi·wr), each product rounded before the
// add/subtract as in Go's complex multiply.
#define WMUL(wp, z, ta, tb) \
	VMOVUPD   wp, ta     \
	VMOVDDUP  z, tb      \
	VMULPD    ta, tb, tb \
	VPERMILPD $5, ta, ta \
	VPERMILPD $0xF, z, z \
	VMULPD    ta, z, z   \
	VADDSUBPD z, tb, z

// func stage5DemodAVX2(x, dst, tw, w *complex128, s, pairs, rows int)
//
// stage5LanesAVX2 at m = 1 (one sub-block: inputs and outputs both 16·s
// bytes apart, in R8) with each output multiplied by its w before it is
// stored and outputs u ≥ rows not stored at all. R10 walks w beside DI.
TEXT ·stage5DemodAVX2(SB), NOSPLIT, $0-56
	MOVQ x+0(FP), SI
	MOVQ dst+8(FP), DI
	MOVQ tw+16(FP), DX
	MOVQ w+24(FP), R10
	MOVQ s+32(FP), R8
	MOVQ pairs+40(FP), CX
	MOVQ rows+48(FP), AX
	SHLQ $4, R8
	LEAQ (R8)(R8*2), R9
	VMOVUPD      signOdd<>(SB), Y15
	VBROADCASTSD ·radix5Consts+0(SB), Y12  // c1
	VBROADCASTSD ·radix5Consts+8(SB), Y13  // s1
	VBROADCASTSD ·radix5Consts+16(SB), Y14 // c2
	VBROADCASTSD ·radix5Consts+24(SB), Y11 // s2
demod5:
	VMOVUPD (SI), Y0
	VMOVUPD (SI)(R8*1), Y1
	VMOVUPD (SI)(R8*2), Y2
	VMOVUPD (SI)(R9*1), Y3
	VMOVUPD (SI)(R8*4), Y4
	VADDPD  Y4, Y1, Y5 // t1 = a1+a4
	VSUBPD  Y4, Y1, Y1 // t3 = a1−a4
	VADDPD  Y3, Y2, Y6 // t2 = a2+a3
	VSUBPD  Y3, Y2, Y2 // t4 = a2−a3
	VADDPD  Y5, Y0, Y3
	VADDPD  Y6, Y3, Y3 // out0 = a0+t1+t2
	WMUL((R10), Y3, Y7, Y8)
	VMOVUPD Y3, (DI)
	VMULPD  Y12, Y5, Y3
	VADDPD  Y3, Y0, Y3
	VMULPD  Y14, Y6, Y4
	VADDPD  Y4, Y3, Y3 // m1 = a0 + c1·t1 + c2·t2
	VMULPD  Y14, Y5, Y4
	VADDPD  Y4, Y0, Y4
	VMULPD  Y12, Y6, Y7
	VADDPD  Y7, Y4, Y4 // m2 = a0 + c2·t1 + c1·t2
	VMULPD  Y13, Y1, Y5
	VMULPD  Y11, Y2, Y6
	VADDPD  Y6, Y5, Y5 // u = s1·t3 + s2·t4
	VMULPD  Y11, Y1, Y6
	VMULPD  Y13, Y2, Y7
	VSUBPD  Y7, Y6, Y6 // v = s2·t3 − s1·t4
	NEGI(Y5)           // n1 = −i·u
	NEGI(Y6)           // n2 = −i·v
	VADDPD  Y5, Y3, Y0 // m1+n1
	VSUBPD  Y5, Y3, Y3 // m1−n1
	VADDPD  Y6, Y4, Y1 // m2+n2
	VSUBPD  Y6, Y4, Y4 // m2−n2
	CMPQ    AX, $2
	JLT     next5
	TWMUL(0, Y0, Y7, Y8)
	WMUL((R10)(R8*1), Y0, Y7, Y8)
	VMOVUPD Y0, (DI)(R8*1)
	CMPQ    AX, $3
	JLT     next5
	TWMUL(16, Y1, Y9, Y10)
	WMUL((R10)(R8*2), Y1, Y9, Y10)
	VMOVUPD Y1, (DI)(R8*2)
	CMPQ    AX, $4
	JLT     next5
	TWMUL(32, Y4, Y7, Y8)
	WMUL((R10)(R9*1), Y4, Y7, Y8)
	VMOVUPD Y4, (DI)(R9*1)
	CMPQ    AX, $5
	JLT     next5
	TWMUL(48, Y3, Y9, Y10)
	WMUL((R10)(R8*4), Y3, Y9, Y10)
	VMOVUPD Y3, (DI)(R8*4)
next5:
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R10
	DECQ CX
	JNZ  demod5
	VZEROUPPER
	RET

// PAIRLOAD loads element t of the two rows at SI into the halves of y
// (x is its low half).
#define PAIRLOAD(t, x, y) \
	VMOVUPD     16*t(SI), x \
	VINSERTF128 $1, 128+16*t(SI), y, y

// func dft8PairAVX2(dst, src *complex128, pairs, rowStride, elemStride int)
//
// DI and R8 are the two rows' output 0, R9 and R10 their output 4, BX the
// byte distance between the rows and R11 between one row's outputs.
TEXT ·dft8PairAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ pairs+16(FP), CX
	MOVQ rowStride+24(FP), BX
	MOVQ elemStride+32(FP), R11
	SHLQ $4, BX
	SHLQ $4, R11
	LEAQ (R11)(R11*2), R12
	VMOVUPD signOdd<>(SB), Y15
	VMOVUPD rtBoth<>(SB), Y14
	VMOVUPD rtConj<>(SB), Y13
pair:
	LEAQ (DI)(BX*1), R8
	LEAQ (DI)(R11*4), R9
	LEAQ (R8)(R11*4), R10
	PAIRLOAD(0, X0, Y0)
	PAIRLOAD(1, X1, Y1)
	PAIRLOAD(2, X2, Y2)
	PAIRLOAD(3, X3, Y3)
	PAIRLOAD(4, X4, Y4)
	PAIRLOAD(5, X5, Y5)
	PAIRLOAD(6, X6, Y6)
	PAIRLOAD(7, X7, Y7)
	BFLY8
	VMOVUPD      X2, (DI)
	VEXTRACTF128 $1, Y2, (R8)
	VMOVUPD      X4, (DI)(R11*1)
	VEXTRACTF128 $1, Y4, (R8)(R11*1)
	VMOVUPD      X3, (DI)(R11*2)
	VEXTRACTF128 $1, Y3, (R8)(R11*2)
	VMOVUPD      X7, (DI)(R12*1)
	VEXTRACTF128 $1, Y7, (R8)(R12*1)
	VMOVUPD      X0, (R9)
	VEXTRACTF128 $1, Y0, (R10)
	VMOVUPD      X1, (R9)(R11*1)
	VEXTRACTF128 $1, Y1, (R10)(R11*1)
	VMOVUPD      X10, (R9)(R11*2)
	VEXTRACTF128 $1, Y10, (R10)(R11*2)
	VMOVUPD      X6, (R9)(R12*1)
	VEXTRACTF128 $1, Y6, (R10)(R12*1)
	ADDQ $256, SI
	LEAQ (DI)(BX*2), DI
	DECQ CX
	JNZ  pair
	VZEROUPPER
	RET
