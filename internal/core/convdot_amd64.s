//go:build amd64 && !purego

#include "textflag.h"

// MAC adds one tap into four accumulators: the tap's eight real taps at
// hb (two loads) multiply the eight staged reals at xr (a0, a1) and the
// eight staged imaginaries at xi (a2, a3) as they lie — no shuffle. CX
// is the tap's byte offset into h and half its offset into x, whose
// taps lie twice as far apart. Each multiply-add is one fused
// VFMADD231PD, rounded once, exactly as the Go kernel's math.FMA.
#define MAC(hb, xr, xi, a0, a1, a2, a3) \
	VMOVUPD     (hb)(CX*1), Y8          \
	VMOVUPD     32(hb)(CX*1), Y9        \
	VFMADD231PD (xr)(CX*2), Y8, a0      \
	VFMADD231PD 32(xr)(CX*2), Y9, a1    \
	VFMADD231PD (xi)(CX*2), Y8, a2      \
	VFMADD231PD 32(xi)(CX*2), Y9, a3

// PHASE multiplies four lanes' sums (reals in re, imaginaries in im) by
// their phases (reals at off(BX), imaginaries R8 bytes further on):
// re·pr − im·pi as im·pi rounded, then re·pr − that fused
// (VFMSUB231PD), and re·pi + im·pr as im·pr rounded, then re·pi + that
// fused (VFMADD231PD) — the Go kernel's two math.FMA calls. It then
// interleaves the split results into four complex values, stored at
// o0(DI) and o1(DI).
#define PHASE(off, o0, o1, re, im) \
	VMULPD      off(BX)(R8*1), im, Y8  \
	VFMSUB231PD off(BX), re, Y8        \
	VMULPD      off(BX), im, Y10       \
	VFMADD231PD off(BX)(R8*1), re, Y10 \
	VUNPCKLPD   Y10, Y8, Y12           \
	VUNPCKHPD   Y10, Y8, Y13           \
	VPERM2F128  $0x20, Y13, Y12, Y14   \
	VPERM2F128  $0x31, Y13, Y12, Y15   \
	VMOVUPD     Y14, o0(DI)            \
	VMOVUPD     Y15, o1(DI)

// func convRowAVX2(out *complex128, h, x, ph *float64, taps, lanes int)
//
// One row of the real-tap convolution for a block of eight lanes, on
// split-complex operands (see convRow): with x_b's reals at
// x[2b·lanes+i] and imaginaries at x[(2b+1)·lanes+i],
// out[i] = ph_i · Σ_b h[b·lanes+i]·x_{b,i}, i ∈ [0, 8). The bits equal
// convRowGo's: even taps accumulate in Y0–Y3 and odd taps in Y4–Y7 (its
// re0/im0 and re1/im1), an odd tap count leaves its last tap in the even
// set, and the sets are added once at the end.
//
// One index register walks every operand: each tap pair moves CX by two
// h tap rows, so the loop carries one add and one compare-and-branch.
TEXT ·convRowAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ ph+24(FP), BX
	MOVQ taps+32(FP), AX
	MOVQ lanes+40(FP), R8
	SHLQ $3, R8           // h tap-row stride; x reals → imaginaries
	LEAQ (SI)(R8*1), R10  // odd taps of h
	LEAQ (DX)(R8*1), R11  // even taps' imaginaries
	LEAQ (DX)(R8*2), R12  // odd taps' reals
	LEAQ (R11)(R8*2), R13 // odd taps' imaginaries
	LEAQ (R8)(R8*1), R14  // CX step per tap pair
	MOVQ AX, R15
	SHRQ $1, R15
	IMULQ R14, R15        // CX past the last pair
	XORQ CX, CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	CMPQ CX, R15
	JGE  tail
pair:
	MAC(SI, DX, R11, Y0, Y1, Y2, Y3)
	MAC(R10, R12, R13, Y4, Y5, Y6, Y7)
	ADDQ R14, CX
	CMPQ CX, R15
	JLT  pair
tail:
	TESTQ $1, AX
	JZ    sum
	MAC(SI, DX, R11, Y0, Y1, Y2, Y3)
sum:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	PHASE(0, 0, 32, Y0, Y2)
	PHASE(32, 64, 96, Y1, Y3)
	VZEROUPPER
	RET

// func splitBlocksAVX2(dst *float64, src *complex128, blocks, lanes int, sign uint64)
//
// Stages whole blocks split-complex (see splitBlocks), four lanes at a
// time: two loads of (re, im) pairs, VUNPCKLPD/VUNPCKHPD into (r0 r2 r1
// r3) and (i0 i2 i1 i3), VPERMPD back into lane order, the imaginaries
// XORed with the broadcast sign. lanes is a multiple of 4.
TEXT ·splitBlocksAVX2(SB), NOSPLIT, $0-40
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         blocks+16(FP), CX
	MOVQ         lanes+24(FP), R8
	VPBROADCASTQ sign+32(FP), Y4
	SHLQ         $3, R8 // bytes of one block's reals
	MOVQ         R8, R9
	SHRQ         $5, R9 // groups of four lanes per block
block:
	MOVQ R9, AX
	LEAQ (DI)(R8*1), R10 // the block's imaginaries
group:
	VMOVUPD   (SI), Y0
	VMOVUPD   32(SI), Y1
	VUNPCKLPD Y1, Y0, Y2
	VUNPCKHPD Y1, Y0, Y3
	VPERMPD   $0xD8, Y2, Y2
	VPERMPD   $0xD8, Y3, Y3
	VXORPD    Y4, Y3, Y3
	VMOVUPD   Y2, (DI)
	VMOVUPD   Y3, (R10)
	ADDQ      $64, SI
	ADDQ      $32, DI
	ADDQ      $32, R10
	DECQ      AX
	JNZ       group
	MOVQ      R10, DI
	DECQ      CX
	JNZ       block
	VZEROUPPER
	RET

// MAC4 adds one tap pair into one output row's accumulators, the
// staged operands as memory operands: the even tap row (Z8) times the
// row's even-tap reals at x and imaginaries at x+R8 into er and ei, the
// odd tap row (Z9) times its odd-tap reals at x+2·R8 and imaginaries at
// x+R13 (3·R8) into odr and odi. Each is one fused VFMADD231PD over
// eight lanes.
#define MAC4(x, er, ei, odr, odi) \
	VFMADD231PD (x), Z8, er         \
	VFMADD231PD (x)(R8*1), Z8, ei   \
	VFMADD231PD (x)(R8*2), Z9, odr  \
	VFMADD231PD (x)(R13*1), Z9, odi

// TAIL4 adds the odd tail's tap row (in Z8) into one row's even set.
#define TAIL4(x, er, ei) \
	VFMADD231PD (x), Z8, er \
	VFMADD231PD (x)(R8*1), Z8, ei

// ROW4 finishes one output row at DI and moves DI to the next: the even
// and odd sets added once (VADDPD), each zmm split into two ymm halves
// of four lanes (VEXTRACTF64X4), and PHASE on each half, exactly as
// convRowAVX2's epilogue.
#define ROW4(er, ei, odr, odi) \
	VADDPD        odr, er, Z0 \
	VADDPD        odi, ei, Z2 \
	VEXTRACTF64X4 $1, Z0, Y1 \
	VEXTRACTF64X4 $1, Z2, Y3 \
	PHASE(0, 0, 32, Y0, Y2)  \
	PHASE(32, 64, 96, Y1, Y3) \
	ADDQ          R15, DI

// func convRows4AVX512(out *complex128, h, x, ph *float64, taps, lanes, xstride, ostride int)
//
// Four rows of one phase for a block of eight lanes (see convRows4):
// row k reads the split slab at x + k·xstride float64 and stores at
// out + k·ostride complex values, all four with the taps h and phases
// ph. Each tap pair's two tap rows are loaded once (Z8, Z9) and
// multiply-added into all four rows, the staged operands as memory
// operands: 18 loads per 16 FMAs. Z16–Z31 hold the accumulators, four
// per row (even re, even im, odd re, odd im); each lane's arithmetic and
// its order are convRowAVX2's, so the bits are convRowGo's. Go never
// preempts assembly asynchronously and no Go code keeps state in
// Z16–Z31, so they need no saving.
TEXT ·convRows4AVX512(SB), NOSPLIT, $0-64
	MOVQ out+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ ph+24(FP), BX
	MOVQ taps+32(FP), AX
	MOVQ lanes+40(FP), R8
	MOVQ xstride+48(FP), R9
	MOVQ ostride+56(FP), R15
	SHLQ $3, R8            // h tap-row stride; x reals → imaginaries
	SHLQ $3, R9            // row-to-row slab stride in bytes
	SHLQ $4, R15           // row-to-row output stride in bytes
	LEAQ (DX)(R9*1), R10   // row 1's slab
	LEAQ (R10)(R9*1), R11  // row 2's
	LEAQ (R11)(R9*1), R12  // row 3's
	LEAQ (R8)(R8*2), R13   // odd taps' imaginaries
	LEAQ (R8)(R8*1), R9    // h step per tap pair
	LEAQ (R9)(R9*1), R14   // x step per tap pair
	MOVQ AX, CX
	SHRQ $1, CX            // tap pairs

	VPXORQ Z16, Z16, Z16
	VPXORQ Z17, Z17, Z17
	VPXORQ Z18, Z18, Z18
	VPXORQ Z19, Z19, Z19
	VPXORQ Z20, Z20, Z20
	VPXORQ Z21, Z21, Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31

	TESTQ CX, CX
	JZ    tail4
pair4:
	VMOVUPD (SI), Z8
	VMOVUPD (SI)(R8*1), Z9
	MAC4(DX, Z16, Z17, Z18, Z19)
	MAC4(R10, Z20, Z21, Z22, Z23)
	MAC4(R11, Z24, Z25, Z26, Z27)
	MAC4(R12, Z28, Z29, Z30, Z31)
	ADDQ R9, SI
	ADDQ R14, DX
	ADDQ R14, R10
	ADDQ R14, R11
	ADDQ R14, R12
	DECQ CX
	JNZ  pair4
tail4:
	TESTQ $1, AX
	JZ    sum4
	VMOVUPD (SI), Z8
	TAIL4(DX, Z16, Z17)
	TAIL4(R10, Z20, Z21)
	TAIL4(R11, Z24, Z25)
	TAIL4(R12, Z28, Z29)
sum4:
	ROW4(Z16, Z17, Z18, Z19)
	ROW4(Z20, Z21, Z22, Z23)
	ROW4(Z24, Z25, Z26, Z27)
	ROW4(Z28, Z29, Z30, Z31)
	VZEROUPPER
	RET
