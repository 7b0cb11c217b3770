//go:build amd64 && !purego

package core

import "soifft/internal/fft"

// Implemented in convdot_amd64.s.
//
//go:noescape
func convDotAVX2(out *complex128, h *float64, x, ph *complex128, taps, stride int)

func init() {
	if fft.HasAVX2() { // the repository's one CPUID routine lives beside the FFT kernels
		convBlock8 = convDotAVX2
	}
}
