package soifft

import (
	"soifft/internal/conv"
	"soifft/internal/fft"
	"soifft/internal/mpi"
)

// FilterSpectrum precomputes the frequency response of a filter for
// repeated use with Convolve. h must have length N.
func FilterSpectrum(h []complex128) ([]complex128, error) {
	return fft.Forward(h)
}

// Convolve computes the cyclic convolution dst = src ⊛ h over the world
// using two SOI passes (forward, pointwise multiply by the cached filter
// spectrum, inverse) — 2 all-to-alls of (1+β)N points per convolution,
// versus 6 for a conventional in-order distributed FFT pair. This is the
// application the paper's introduction motivates: chained transforms
// compound SOI's communication saving.
//
// filterSpec is the full-length spectrum from FilterSpectrum; dst and
// src have length N and are scattered block-wise like
// TransformDistributed.
func (p *Plan) Convolve(w *World, dst, src, filterSpec []complex128) error {
	return p.scatter(w, func(c *mpi.Comm, b [][]complex128) error {
		return conv.SOI(c, p.inner, b[0], b[1], b[2])
	}, dst, src, filterSpec)
}
