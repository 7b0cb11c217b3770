package core

// ConvolveRangeJammed is the unroll-and-jam variant of ConvolveRange,
// mirroring the paper's Section 6 optimization recipe: all μ rows of a
// row group read the same input range and reuse the same μ·B·P weight
// block, so jamming the row loop inside the tap loop turns B·μ strided
// passes into B passes with μ accumulators — better locality for both
// the weights and the input (the paper reports 40% of peak for its SIMD
// version of this kernel).
//
// Measured finding (BenchmarkConvolveRange, N = 2^18, P = 8, B = 72, one
// 2.1 GHz core): jammed 58–77 ms, the Go real-tap kernel 21–23 ms, the
// AVX2 real-tap kernel 6.4–7.0 ms. The jam stays scalar and multiplies by
// the full complex tensor, so it does twice the arithmetic of the real-tap
// form and gains nothing from locality: one row's B·P tap and input slabs
// already sit in L1 without it. The paper's SIMD came with the jam; ours
// (convdot_amd64.s) came with the factorization instead and vectorizes
// across the P lanes of one row. This kernel is kept as the faithful
// Section 6 reproduction, not as a production path.
//
// The range [jLo, jHi) must be row-group aligned: μ | jLo and μ | jHi.
// Results are bit-identical to convolveRangeRef, the complex-tensor
// reference (same per-element operation order), and within a few ulps of
// ConvolveRange.
func (pl *Plan) ConvolveRangeJammed(dst, src []complex128, jLo, jHi, colOff int) {
	p := pl.prm
	if jLo%p.Mu != 0 || jHi%p.Mu != 0 {
		// Fall back for unaligned ranges rather than corrupting results.
		pl.ConvolveRange(dst, src, jLo, jHi, colOff)
		return
	}
	mu, bTaps, lanes := p.Mu, p.B, p.P
	for g := jLo / mu; g < jHi/mu; g++ {
		base := (g*mu - jLo) * lanes
		out := dst[base : base+mu*lanes]
		for i := range out {
			out[i] = 0
		}
		groupStart := g * p.Nu * lanes
		for b := 0; b < bTaps; b++ {
			for r := 0; r < mu; r++ {
				start := groupStart + (pl.dstart[r]+b)*lanes - colOff
				xb := src[start : start+lanes]
				wb := pl.wt[(r*bTaps+b)*lanes : (r*bTaps+b+1)*lanes]
				o := out[r*lanes : (r+1)*lanes]
				for i, xv := range xb {
					o[i] += wb[i] * xv
				}
			}
		}
	}
}
