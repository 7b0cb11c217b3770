package fft

import "math"

// ExpIPi returns exp(iπ·num/den), den > 0, with the argument reduced
// exactly: num/den is taken modulo 2 in integers and then split into the
// nearest quarter turn, applied as an exact swap and sign change, and a
// remainder of at most π/4 for math.Sincos. The result is good to about
// one ulp however large num/den is; cmplx.Exp(iπ·num/den) would instead
// carry ≈ |π·num/den|·ε of phase error.
func ExpIPi(num, den int) complex128 {
	a := num % (2 * den)
	if a < 0 {
		a += 2 * den
	}
	// a/den = q/2 + rem/(2·den) with q = round(2a/den), |rem| ≤ den/2.
	q := (4*a + den) / (2 * den)
	rem := 2*a - q*den
	s, c := math.Sincos(math.Pi * float64(rem) / float64(2*den))
	switch q & 3 {
	case 1:
		return complex(-s, c)
	case 2:
		return complex(-c, -s)
	case 3:
		return complex(s, -c)
	}
	return complex(c, s)
}

// Direct computes the forward DFT by the O(n^2) definition. It is the
// reference oracle for tests and accuracy measurements; it must stay
// independent of the fast path. Each output is a compensated sum (see
// directInto), so its error stays near one rounding of the result rather
// than growing with n.
func Direct(dst, src []complex128) {
	if len(dst) != len(src) {
		panic("fft: Direct length mismatch")
	}
	directInto(dst, src, -2, 1)
}

// DirectInverse computes the inverse DFT (scaled by 1/n) by definition,
// with the same compensated sums as Direct.
func DirectInverse(dst, src []complex128) {
	if len(dst) != len(src) {
		panic("fft: DirectInverse length mismatch")
	}
	directInto(dst, src, 2, 1/float64(len(src)))
}

// directInto sets dst[k] = scale·Σ_j src[j]·exp(iπ·sign·((j·k) mod n)/n)
// from one table of the n roots. Each real and imaginary part is summed
// with Ogita, Rump and Oishi's Dot2: the rounding error of every product
// (an FMA) and of every addition (TwoSum) is gathered in a second
// accumulator that is added back once at the end.
func directInto(dst, src []complex128, sign int, scale float64) {
	n := len(src)
	if n == 0 {
		return
	}
	out := dst
	if sameSlice(dst, src) {
		out = make([]complex128, n)
	}
	roots := make([]complex128, n)
	for m := range roots {
		roots[m] = ExpIPi(sign*m, n)
	}
	for k := range out {
		var sr, cr, si, ci float64
		m := 0 // (j·k) mod n
		for _, x := range src {
			w := roots[m]
			sr, cr = dot2(sr, cr, real(x), real(w))
			sr, cr = dot2(sr, cr, -imag(x), imag(w))
			si, ci = dot2(si, ci, real(x), imag(w))
			si, ci = dot2(si, ci, imag(x), real(w))
			if m += k; m >= n {
				m -= n
			}
		}
		out[k] = complex((sr+cr)*scale, (si+ci)*scale)
	}
	if &out[0] != &dst[0] {
		copy(dst, out)
	}
}

// dot2 adds a·b to the compensated sum (s, c): s takes the rounded sum,
// c the exact errors of the product and of the addition. The explicit
// float64 conversion keeps the compiler from fusing a·b into the sum.
func dot2(s, c, a, b float64) (float64, float64) {
	p := float64(a * b)
	e := math.FMA(a, b, -p)
	t := s + p
	z := t - s
	q := (s - (t - z)) + (p - z)
	return t, c + (q + e)
}
