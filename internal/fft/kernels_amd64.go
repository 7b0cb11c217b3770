//go:build amd64 && !purego

package fft

// Implemented in kernels_amd64.s.

// HasAVX2FMA reports whether this CPU and OS run AVX2 and FMA code: the
// one CPUID routine of the repository, shared with the convolution
// kernel in internal/core, whose bit contract fuses multiply-adds (a
// purego build compiles neither). The FFT kernels need only AVX2, but
// one answer keeps one dispatch decision for both packages.
func HasAVX2FMA() bool

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
