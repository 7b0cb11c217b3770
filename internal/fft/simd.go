package fft

// The SIMD seam. Each variable below, when the package's init found a
// kernel this CPU and OS can run, replaces one hot Go loop; nil leaves
// the Go kernel in place. They are written once, before any plan exists,
// and never again. Every kernel returns the bits of the Go kernel it
// stands in for (no FMA, same association), so which one ran is visible
// in timings only.
// laneFunc is the shape of the lane kernels (see lanes8).
type laneFunc func(x, y, tw *complex128, s, m, count int)

var (
	// lanes8, lanes5 and lanes4 run count sub-blocks of one radix-8, -5
	// or -4 Stockham pass with an even lane count s, two lanes to a
	// vector: x, y and tw point at the first sub-block's x[s·lo],
	// y[s·r·lo] and tw[(r−1)·lo]. Go twins: stageRadix8, stageRadix5,
	// stageRadix4.
	lanes8, lanes5, lanes4 laneFunc

	// first8 runs 2·pairs sub-blocks of a stride-1 (first) radix-8 pass,
	// two sub-blocks to a vector; x, y and tw point at x[lo], y[8·lo] and
	// tw[7·lo]. Go twin: stageRadix8S1.
	first8 func(x, y, tw *complex128, m, pairs int)

	// dft8Pair applies the 8-point DFT to 2·pairs contiguous rows of src,
	// two rows to a vector, and stores output u of row i at
	// dst[u·elemStride + i·rowStride]. Go twin: codelet8.
	dft8Pair func(dst, src *complex128, pairs, rowStride, elemStride int)

	// demod5 runs 2·pairs lanes of a plan's last radix-5 pass (m = 1),
	// two lanes to a vector, storing output u of lane q times w[q+s·u]
	// at dst[q+s·u] for u < rows; x, dst and w point at the first lane's
	// x[q], dst[q] and w[q], tw at the pass's four twiddles. Go twin:
	// stageRadix5Demod.
	demod5 func(x, dst, tw, w *complex128, s, pairs, rows int)
)

// Kernel names the butterfly kernels this process runs for the passes
// that have a SIMD form: "avx2" or, where the build or the CPU has none,
// "go". The two return the same bits.
func Kernel() string {
	if lanes8 != nil {
		return "avx2"
	}
	return "go"
}

// laneKernel returns the SIMD kernel for the pass, or nil where it runs
// the Go kernel: an odd lane count (the vectors hold lanes in pairs), a
// radix without a SIMD form, or no kernel installed.
func laneKernel(st *stage) laneFunc {
	if st.s%2 != 0 {
		return nil
	}
	switch st.radix {
	case 8:
		return lanes8
	case 5:
		return lanes5
	case 4:
		return lanes4
	}
	return nil
}

// stageLanes runs sub-blocks [lo, hi) of an even-s pass on the lane
// kernel k. It is the only caller of the lane assembly, which checks no
// bounds: the last element the kernel will read from x and tw and write
// to y is touched here first.
func stageLanes(k laneFunc, st *stage, x, y []complex128, lo, hi int) {
	if lo >= hi {
		return
	}
	r, m, s := st.radix, st.m, st.s
	p := hi - 1
	_ = x[s*(p+(r-1)*m)+s-1]
	_ = y[s*r*p+r*s-1]
	_ = st.tw[p*(r-1)+r-2]
	k(&x[s*lo], &y[s*r*lo], &st.tw[lo*(r-1)], s, m, hi-lo)
}

// stageFirst8 runs the sub-blocks of [lo, hi) that pair up on the first8
// kernel and returns where the Go kernel takes over (lo without a
// kernel, else hi or hi−1). It is the only caller of that assembly and
// touches the last element read and written before passing pointers.
func stageFirst8(st *stage, x, y []complex128, lo, hi int) int {
	pairs := (hi - lo) / 2
	if first8 == nil || pairs < 1 {
		return lo
	}
	p := lo + 2*pairs - 1
	_ = x[p+7*st.m]
	_ = y[8*p+7]
	_ = st.tw[7*p+6]
	first8(&x[lo], &y[8*lo], &st.tw[7*lo], st.m, pairs)
	return p + 1
}

// dft8Rows runs the 8-point DFT over the first count&^1 rows of src on
// the pair kernel and returns how many rows it covered (0 without a
// kernel); the caller finishes an odd tail with codelet8. It is the only
// caller of the pair assembly and touches the last element read and
// written before passing pointers.
func dft8Rows(dst, src []complex128, count, rowStride, elemStride int) int {
	if dft8Pair == nil || count < 2 {
		return 0
	}
	rows := count &^ 1
	_ = src[rows*8-1]
	_ = dst[7*elemStride+(rows-1)*rowStride]
	dft8Pair(&dst[0], &src[0], rows/2, rowStride, elemStride)
	return rows
}
