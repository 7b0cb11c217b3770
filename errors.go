package soifft

import "soifft/internal/core"

// Sentinel errors of the execution surface. Transform, Inverse,
// TransformSegment, TransformBatch, the Distributed variants and
// Convolve wrap exactly one of these in every validation failure, so
// callers classify with errors.Is instead of matching message text:
//
//	if errors.Is(err, soifft.ErrLength) { ... caller sized a buffer wrong ... }
//
// Errors born from a cancelled context are ctx.Err() (context.Canceled
// or context.DeadlineExceeded), not members of this taxonomy; transport
// failures, in process and on a TCP mesh, are *mpinet.TransportError
// values.
var (
	// ErrLength reports a dst/src/filter slice whose length does not
	// match what the plan requires.
	ErrLength = core.ErrLength
	// ErrAlias reports dst and src sharing backing storage where the
	// pipeline requires distinct buffers.
	ErrAlias = core.ErrAlias
	// ErrSegmentRange reports a segment index outside [0, Segments).
	ErrSegmentRange = core.ErrSegmentRange
	// ErrPlanMismatch reports an execution shape the plan cannot serve:
	// a world size that does not divide the plan's segments or row
	// groups, a halo larger than the neighbour blocks, or a root rank
	// outside the world.
	ErrPlanMismatch = core.ErrPlanMismatch
)
