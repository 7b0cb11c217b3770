package soifft

import (
	"context"
	"fmt"

	"soifft/internal/mpi"
)

// TransformContext is Transform with cooperative cancellation: the
// pipeline checks ctx at every stage boundary and returns ctx.Err() when
// it is done. A stage already running completes (stages are pure compute
// and each is a fraction of the transform), so cancellation latency is
// bounded by the longest single stage, not the whole transform.
func (p *Plan) TransformContext(ctx context.Context, dst, src []complex128) error {
	return p.inner.TransformContext(ctx, dst, src)
}

// InverseContext is Inverse with the forward path's cancellation checks.
func (p *Plan) InverseContext(ctx context.Context, dst, src []complex128) error {
	return p.inner.InverseTransformContext(ctx, dst, src)
}

// TransformSegmentContext is TransformSegment with a cancellation check
// between the convolution and the segment FFT.
func (p *Plan) TransformSegmentContext(ctx context.Context, dst, src []complex128, s int) error {
	return p.inner.TransformSegmentContext(ctx, dst, src, s)
}

// TransformBatchContext is TransformBatch with cancellation checks
// between vectors as well as at each transform's stage boundaries, so a
// long batch stops promptly once ctx is done.
func (p *Plan) TransformBatchContext(ctx context.Context, dst, src []complex128, count int) error {
	n := p.N()
	if count < 0 || len(dst) < count*n || len(src) < count*n {
		return fmt.Errorf("soifft: batch of %d x %d needs %d elements, got dst %d src %d: %w",
			count, n, count*n, len(dst), len(src), ErrLength)
	}
	for i := 0; i < count; i++ {
		if err := p.inner.TransformContext(ctx, dst[i*n:(i+1)*n], src[i*n:(i+1)*n]); err != nil {
			return err
		}
	}
	return nil
}

// TransformDistributedContext is TransformDistributed with cancellation
// checks at every rank's phase boundaries: when ctx is done each rank
// stops before its next local phase and the first error (ctx.Err())
// aborts the world. A collective already in flight is not interrupted.
func (p *Plan) TransformDistributedContext(ctx context.Context, w *World, dst, src []complex128) error {
	return p.scatter(w, func(c *mpi.Comm, b [][]complex128) error {
		_, err := p.inner.RunDistributed(ctx, c, b[0], b[1])
		return err
	}, dst, src)
}

// InverseDistributedContext is InverseDistributed with the forward
// driver's cancellation checks at phase boundaries.
func (p *Plan) InverseDistributedContext(ctx context.Context, w *World, dst, src []complex128) error {
	return p.scatter(w, func(c *mpi.Comm, b [][]complex128) error {
		_, err := p.inner.RunDistributedInverse(ctx, c, b[0], b[1])
		return err
	}, dst, src)
}
