//go:build amd64 && !purego

package fft

// Implemented in kernels_amd64.s.

// cpuSIMD is the repository's one CPUID routine.
func cpuSIMD() (avx2FMA, avx512F bool)

// hasAVX2FMA and hasAVX512F are its answers, asked once.
var hasAVX2FMA, hasAVX512F = cpuSIMD()

// HasAVX2FMA reports whether this CPU and OS run AVX2 and FMA code. The
// answer is shared with the convolution kernels in internal/core, whose
// bit contract fuses multiply-adds (a purego build compiles neither).
// The FFT kernels need only AVX2, but one answer keeps one dispatch
// decision for both packages.
func HasAVX2FMA() bool { return hasAVX2FMA }

// HasAVX512F reports whether this CPU and OS also run AVX-512F code
// (the OS saving the opmask and all 32 zmm registers), from the same
// routine. Only internal/core's four-row convolution kernel uses it.
func HasAVX512F() bool { return hasAVX512F }

//go:noescape
func stage8LanesAVX2(x, y, tw *complex128, s, m, count int)

//go:noescape
func stage8FirstAVX2(x, y, tw *complex128, m, pairs int)

//go:noescape
func stage5LanesAVX2(x, y, tw *complex128, s, m, count int)

//go:noescape
func stage4LanesAVX2(x, y, tw *complex128, s, m, count int)

//go:noescape
func stage5DemodAVX2(x, dst, tw, w *complex128, s, pairs, rows int)

//go:noescape
func dft8PairAVX2(dst, src *complex128, pairs, rowStride, elemStride int)

func init() {
	if HasAVX2FMA() {
		lanes8, lanes5, lanes4 = stage8LanesAVX2, stage5LanesAVX2, stage4LanesAVX2
		first8, dft8Pair, demod5 = stage8FirstAVX2, dft8PairAVX2, stage5DemodAVX2
	}
}
