//go:build amd64 && !purego

#include "textflag.h"

// MAC adds one tap row into four accumulators: the row's eight real taps
// (two loads) are duplicated across the re/im halves of the eight complex
// lanes, multiplied by the input row and added. Multiply then add, never
// fused: the Go kernel rounds the product too.
#define MAC(hp, xp, a0, a1, a2, a3) \
	VMOVUPD (hp), Y8         \
	VMOVUPD 32(hp), Y9       \
	VPERMPD $0x50, Y8, Y10   \
	VPERMPD $0xFA, Y8, Y11   \
	VPERMPD $0x50, Y9, Y12   \
	VPERMPD $0xFA, Y9, Y13   \
	VMULPD  (xp), Y10, Y10   \
	VMULPD  32(xp), Y11, Y11 \
	VMULPD  64(xp), Y12, Y12 \
	VMULPD  96(xp), Y13, Y13 \
	VADDPD  Y10, a0, a0      \
	VADDPD  Y11, a1, a1      \
	VADDPD  Y12, a2, a2      \
	VADDPD  Y13, a3, a3

// PHASE multiplies two accumulated lanes (re, im pairs in acc) by their
// phases at off(BX) and stores them at off(DI):
// (re·pr − im·pi, re·pi + im·pr), each product rounded before the
// add/subtract exactly as in the Go kernel.
#define PHASE(off, acc) \
	VMOVUPD   off(BX), Y8     \
	VPERMILPD $0x5, Y8, Y9    \
	VMOVDDUP  acc, Y10        \
	VPERMILPD $0xF, acc, Y11  \
	VMULPD    Y8, Y10, Y10    \
	VMULPD    Y9, Y11, Y11    \
	VADDSUBPD Y11, Y10, Y10   \
	VMOVUPD   Y10, off(DI)

// func convDotAVX2(out *complex128, h *float64, x, ph *complex128, taps, stride int)
//
// One row of the real-tap convolution for a block of eight lanes:
// out[i] = ph[i] · Σ_b h[b·stride+i]·x[b·stride+i], i ∈ [0, 8). The bits
// equal convDotGo's: even taps accumulate in Y0–Y3 and odd taps in Y4–Y7
// (its re0/im0 and re1/im1), an odd tap count leaves its last tap in the
// even set, and the sets are added once at the end.
TEXT ·convDotAVX2(SB), NOSPLIT, $0-48
	MOVQ out+0(FP), DI
	MOVQ h+8(FP), SI
	MOVQ x+16(FP), DX
	MOVQ ph+24(FP), BX
	MOVQ taps+32(FP), CX
	MOVQ stride+40(FP), R8
	SHLQ $3, R8         // tap-row stride of h in bytes
	LEAQ (R8)(R8*1), R9 // and of x

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	SUBQ $2, CX
	JLT  tail
pair:
	LEAQ (SI)(R8*1), R10
	LEAQ (DX)(R9*1), R11
	MAC(SI, DX, Y0, Y1, Y2, Y3)
	MAC(R10, R11, Y4, Y5, Y6, Y7)
	LEAQ (SI)(R8*2), SI
	LEAQ (DX)(R9*2), DX
	SUBQ $2, CX
	JGE  pair
tail:
	ADDQ $2, CX
	JZ   sum
	MAC(SI, DX, Y0, Y1, Y2, Y3)
sum:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	PHASE(0, Y0)
	PHASE(32, Y1)
	PHASE(64, Y2)
	PHASE(96, Y3)
	VZEROUPPER
	RET
