package core

import "context"

// InverseTransform computes dst = IDFT(src), scaled by 1/N so a
// forward-inverse round trip reproduces the input. It reuses the forward
// SOI factorization through the conjugation identity
//
//	IDFT(y) = conj(DFT(conj(y))) / N,
//
// so the inverse inherits the single-all-to-all property unchanged.
func (pl *Plan) InverseTransform(dst, src []complex128) error {
	return pl.InverseTransformContext(context.Background(), dst, src)
}

// InverseTransformContext is InverseTransform with the forward path's
// cancellation checks at stage boundaries. The conjugation happens while
// each convolution tile stages its input, so the inverse allocates
// exactly what the forward transform does.
func (pl *Plan) InverseTransformContext(ctx context.Context, dst, src []complex128) error {
	_, err := pl.transform(ctx, dst, src, true)
	return err
}

// RunDistributedInverse is the distributed counterpart of
// InverseTransform: conjugation and scaling are rank-local, so the
// communication profile is identical to the forward run (one halo
// exchange plus a single all-to-all), and the forward driver's options
// (WithAsyncWindow, WithCoding, WithRecorder) apply unchanged. The
// input, halo included, is conjugated where the convolution stages it.
func (pl *Plan) RunDistributedInverse(ctx context.Context, c Comm, localOut, localIn []complex128, opts ...DistOption) (DistributedTimes, error) {
	return pl.runDistributed(ctx, c, localOut, localIn, opts, true)
}

func conjScale(x []complex128, s float64) {
	for i, v := range x {
		x[i] = complex(real(v)*s, -imag(v)*s)
	}
}
