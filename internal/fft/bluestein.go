package fft

import (
	"fmt"
	"math"
	"math/cmplx"
)

// bluestein implements the chirp-z transform: an arbitrary-length DFT
// expressed as a cyclic convolution, evaluated with power-of-two FFTs.
// It serves lengths whose factorization contains a prime > maxSmallPrime.
type bluestein struct {
	n     int
	m     int          // power-of-two convolution length, m >= 2n-1
	w     []complex128 // chirp: w[j] = exp(-i*pi*j*j/n)
	bhat  []complex128 // forward FFT of the chirp filter
	inner *Plan        // power-of-two plan of length m; its scratch is ours
}

func newBluestein(n int) (*bluestein, error) {
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	inner, err := NewPlan(m)
	if err != nil {
		return nil, fmt.Errorf("fft: bluestein inner plan: %w", err)
	}
	b := &bluestein{n: n, m: m, inner: inner}

	b.w = make([]complex128, n)
	for j := 0; j < n; j++ {
		// j*j mod 2n keeps the angle argument small for large n.
		jj := (int64(j) * int64(j)) % int64(2*n)
		ang := -math.Pi * float64(jj) / float64(n)
		b.w[j] = cmplx.Exp(complex(0, ang))
	}

	filt := make([]complex128, m)
	filt[0] = cmplx.Conj(b.w[0])
	for j := 1; j < n; j++ {
		c := cmplx.Conj(b.w[j])
		filt[j] = c
		filt[m-j] = c
	}
	b.bhat = make([]complex128, m)
	inner.Forward(b.bhat, filt)
	return b, nil
}

func (b *bluestein) transform(dst, src []complex128) {
	a, t := b.inner.getScratch(), b.inner.getScratch()
	defer b.inner.putScratch(a)
	defer b.inner.putScratch(t)

	for j := 0; j < b.n; j++ {
		a[j] = src[j] * b.w[j]
	}
	for j := b.n; j < b.m; j++ {
		a[j] = 0
	}
	b.inner.Forward(t, a)
	for j := range t {
		t[j] *= b.bhat[j]
	}
	b.inner.Inverse(a, t)
	for k := 0; k < b.n; k++ {
		dst[k] = a[k] * b.w[k]
	}
}
