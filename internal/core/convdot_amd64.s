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
