//go:build amd64 && !purego

package core

// Implemented in convdot_amd64.s.

func cpuHasAVX2() bool

//go:noescape
func convDotAVX2(out *complex128, h *float64, x, ph *complex128, taps, stride int)

func init() {
	if cpuHasAVX2() {
		convBlock8 = convDotAVX2
	}
}
