// Package conv implements distributed cyclic convolution, the
// application the paper's introduction singles out: "the numbers of
// global transposes can be reduced if out-of-order data can be
// accommodated such as when FFT is used to compute a convolution".
//
// Three strategies over block-distributed data, with a cached filter
// spectrum (the steady-state case of repeated filtering):
//
//   - InOrder: conventional six-step FFT → pointwise → six-step inverse:
//     3 + 3 = 6 all-to-alls of N points each.
//   - OutOfOrder: six-step forward *without* the final output transpose,
//     pointwise multiply in the transposed layout, inverse that starts
//     from that layout: 2 + 2 = 4 all-to-alls.
//   - SOI: forward SOI → pointwise → inverse SOI: 1 + 1 = 2 all-to-alls
//     of (1+β)N points — the low-communication framework compounds when
//     transforms are chained.
package conv

import (
	"context"
	"math"
	"math/cmplx"

	"soifft/internal/baseline"
	"soifft/internal/core"
	"soifft/internal/fft"
)

// SOI performs localOut = IDFT(DFT(x)·filterSpec) with two SOI passes.
// filterSpecLocal is this rank's natural-order block of the filter's
// spectrum (length N/R), typically computed once and cached. Options
// (e.g. core.WithAsyncWindow) apply to both passes.
func SOI(c core.Comm, pl *core.Plan, localOut, localX, filterSpecLocal []complex128, opts ...core.DistOption) error {
	spec := make([]complex128, len(localX))
	if _, err := pl.RunDistributed(context.Background(), c, spec, localX, opts...); err != nil {
		return err
	}
	for i := range spec {
		spec[i] *= filterSpecLocal[i]
	}
	_, err := pl.RunDistributedInverse(context.Background(), c, localOut, spec, opts...)
	return err
}

// InOrder performs the same convolution with the conventional in-order
// transpose algorithm on both sides (6 exchanges).
func InOrder(c core.Comm, localOut, localX, filterSpecLocal []complex128, n int) error {
	alg := baseline.SixStep{}
	spec := make([]complex128, len(localX))
	if _, err := alg.Transform(c, spec, localX, n); err != nil {
		return err
	}
	for i := range spec {
		spec[i] *= filterSpecLocal[i]
	}
	// Inverse via the conjugation identity; scaling is local.
	conjInPlace(spec)
	if _, err := alg.Transform(c, localOut, spec, n); err != nil {
		return err
	}
	inv := 1 / float64(n)
	for i, v := range localOut {
		localOut[i] = complex(real(v)*inv, -imag(v)*inv)
	}
	return nil
}

// OutOfOrder is a distributed FFT pair that stops short of natural
// order: Forward leaves the spectrum in the transposed n1×n2 layout
// (2 exchanges), Inverse starts from it (2 exchanges). Pointwise
// operations between the two are layout-agnostic as long as both
// operands use the same layout (use ForwardSpectrum for the filter).
type OutOfOrder struct {
	N1, N2 int // N = N1·N2, both divisible by the rank count
}

// PlanOutOfOrder chooses a square-ish split for n on r ranks.
func PlanOutOfOrder(n, r int) (OutOfOrder, error) {
	n1, n2, err := baseline.ChooseSplit(n, r, baseline.SplitSquare)
	return OutOfOrder{N1: n1, N2: n2}, err
}

// Forward computes the spectrum of localIn in the transposed layout:
// the returned slice is this rank's rows of the n1×n2 matrix
// Z[k1][j2→k2], i.e. Z[k1][k2] = y[k2·N1 + k1]. Two exchanges.
func (o OutOfOrder) Forward(c core.Comm, localIn []complex128) ([]complex128, error) {
	r := c.Size()
	n := o.N1 * o.N2
	rn2 := o.N2 / r
	// Steps 1-5 of the six-step algorithm (see baseline.SixStep), minus
	// the final transpose.
	a, err := baseline.Transpose(c, localIn, o.N1, o.N2)
	if err != nil {
		return nil, err
	}
	p1, err := fft.CachedPlan(o.N1)
	if err != nil {
		return nil, err
	}
	p1.Batch(a, a, rn2)
	base := c.Rank() * rn2
	for j2 := 0; j2 < rn2; j2++ {
		g := float64(base + j2)
		row := a[j2*o.N1 : (j2+1)*o.N1]
		for k1 := 1; k1 < o.N1; k1++ {
			ang := -2 * math.Pi * g * float64(k1) / float64(n)
			row[k1] *= cmplx.Exp(complex(0, ang))
		}
	}
	b, err := baseline.Transpose(c, a, o.N2, o.N1)
	if err != nil {
		return nil, err
	}
	p2, err := fft.CachedPlan(o.N2)
	if err != nil {
		return nil, err
	}
	p2.Batch(b, b, o.N1/r)
	return b, nil
}

// Inverse reconstructs the natural-order block-distributed sequence from
// a transposed-layout spectrum. Two exchanges.
func (o OutOfOrder) Inverse(c core.Comm, localZ []complex128) ([]complex128, error) {
	r := c.Size()
	n := o.N1 * o.N2
	rn1 := o.N1 / r
	// Undo step 5: inverse row FFTs of length n2 (local).
	p2, err := fft.CachedPlan(o.N2)
	if err != nil {
		return nil, err
	}
	z := append([]complex128(nil), localZ...)
	p2.InverseBatch(z, z, rn1)
	// Undo step 4: transpose back to the n2×n1 view.
	a, err := baseline.Transpose(c, z, o.N1, o.N2)
	if err != nil {
		return nil, err
	}
	// Undo step 3: conjugate twiddles.
	rn2 := o.N2 / r
	base := c.Rank() * rn2
	for j2 := 0; j2 < rn2; j2++ {
		g := float64(base + j2)
		row := a[j2*o.N1 : (j2+1)*o.N1]
		for k1 := 1; k1 < o.N1; k1++ {
			ang := 2 * math.Pi * g * float64(k1) / float64(n)
			row[k1] *= cmplx.Exp(complex(0, ang))
		}
	}
	// Undo step 2: inverse FFTs of length n1 (local rows).
	p1, err := fft.CachedPlan(o.N1)
	if err != nil {
		return nil, err
	}
	p1.InverseBatch(a, a, rn2)
	// Undo step 1: transpose back to natural order.
	return baseline.Transpose(c, a, o.N2, o.N1)
}

// Convolve runs the 4-exchange out-of-order convolution; filterSpecT is
// the filter spectrum in the same transposed layout (from Forward).
func (o OutOfOrder) Convolve(c core.Comm, localOut, localX, filterSpecT []complex128) error {
	spec, err := o.Forward(c, localX)
	if err != nil {
		return err
	}
	for i := range spec {
		spec[i] *= filterSpecT[i]
	}
	back, err := o.Inverse(c, spec)
	if err != nil {
		return err
	}
	copy(localOut, back)
	return nil
}

func conjInPlace(x []complex128) {
	for i, v := range x {
		x[i] = cmplx.Conj(v)
	}
}
