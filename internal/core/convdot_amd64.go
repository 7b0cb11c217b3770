//go:build amd64 && !purego

package core

import "soifft/internal/fft"

// Implemented in convdot_amd64.s.
//
//go:noescape
func convRowAVX2(out *complex128, h, x, ph *float64, taps, lanes int)

//go:noescape
func convRows4AVX512(out *complex128, h, x, ph *float64, taps, lanes, xstride, ostride int)

//go:noescape
func splitBlocksAVX2(dst *float64, src *complex128, blocks, lanes int, sign uint64)

func init() {
	if fft.HasAVX2FMA() { // the repository's one CPUID routine lives beside the FFT kernels
		convRow8, splitBlocks = convRowAVX2, splitBlocksAVX2
		if fft.HasAVX512F() {
			convRows8 = convRows4AVX512
		}
	}
}
