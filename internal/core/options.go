package core

import (
	"soifft/internal/exch"
	"soifft/internal/instrument"
	"soifft/internal/telemetry"
)

// CheckedComm is the optional per-peer checked-messaging capability a
// Comm may implement (discovered by type assertion, like io.ReaderFrom):
// point-to-point operations that report a dead peer as an error to route
// around rather than a rank-fatal panic. Both *mpi.Comm and *mpinet.Proc
// implement it; WithCoding requires it.
type CheckedComm interface {
	SendChecked(to, tag int, data any) error
	RecvCChecked(from, tag int) ([]complex128, error)
}

// StreamComm is the optional streaming-collective capability a Comm may
// implement: a chunked, windowed, asynchronous all-to-all whose chunks
// the driver fans out while later tiles are still convolving. Both
// *mpi.Comm and *mpinet.Proc implement it; WithAsyncWindow uses it (and
// falls back to the blocking exchange when it is absent).
type StreamComm interface {
	StartAlltoallv(o exch.Options) exch.Stream
}

// IntoComm is the optional receive-into capability a Comm may implement:
// the blocking all-to-all and the point-to-point receive landing in the
// driver's workspace instead of a fresh slice. Both *mpi.Comm and
// *mpinet.Proc implement it; without it the driver falls back to
// Alltoall / RecvC. Failures raise typed Faults as those do.
type IntoComm interface {
	AlltoallInto(recv, send []complex128, chunk int)
	RecvInto(dst []complex128, from, tag int)
}

// DistOption configures one distributed transform run (see
// Plan.RunDistributed).
type DistOption func(*distOptions)

type distOptions struct {
	coded    bool
	parity   int
	window   int
	adaptive bool
	// haloChecked is derived, not an option: the run drivers set it when
	// the unwrapped Comm has the CheckedComm capability, enabling the
	// chunk-streamed halo on the streamed path.
	haloChecked bool
	inverse     bool // set by RunDistributedInverse, not an option
	rec         *instrument.Recorder
	tele        *telemetry.Plane
}

// resolveDistOptions folds the options over the plan's defaults.
func (pl *Plan) resolveDistOptions(opts []DistOption) distOptions {
	cfg := distOptions{rec: pl.rec}
	for _, o := range opts {
		if o != nil {
			o(&cfg)
		}
	}
	return cfg
}

// WithCoding runs the exchange erasure-protected with m parity shares
// per codeword, so the transform survives up to m rank deaths
// mid-exchange (bit-exact, reported via *DegradedError). Requires a Comm
// with the CheckedComm capability; m = 0 means detection without
// repair. The protocol contract (outcomes, what deaths it survives) is
// documented on runCoded in coded.go.
func WithCoding(m int) DistOption {
	return func(o *distOptions) { o.coded = true; o.parity = m }
}

// WithAsyncWindow streams the exchange in chunks with at most w chunks
// in flight (queued but unflushed) per destination link, overlapping
// wire time with convolution on the send side and with segment assembly
// on the receive side. w <= 0 selects the blocking exchange (the
// default); so does a Comm without the StreamComm capability. Results
// are bit-identical to the blocking exchange for every window.
func WithAsyncWindow(w int) DistOption {
	return func(o *distOptions) {
		if w < 0 {
			w = 0
		}
		o.window = w
	}
}

// WithAdaptiveWindow lets the plan's closed-loop controller pick the
// streamed exchange's window instead of a fixed WithAsyncWindow(w): the
// first transform runs at the model prior (SetWindowPrior, or the
// adapt.DefaultWindow without one), and between transforms the
// controller adapts from the measured overlap ratio, credit-stall share
// and wire/compute ratio, with hysteresis so a noisy link doesn't
// thrash the schedule. Requires the StreamComm capability (falls back
// to the blocking exchange without it, like WithAsyncWindow); an
// explicit WithAsyncWindow(w > 0) in the same run overrides the
// controller. Composes with WithCoding. Results remain bit-identical to
// the blocking exchange at every chosen window.
func WithAdaptiveWindow() DistOption {
	return func(o *distOptions) { o.adaptive = true }
}

// WithRecorder observes this run with rec instead of the plan's own
// recorder (stage timers, comm counters). nil disables observation for
// the run.
func WithRecorder(rec *instrument.Recorder) DistOption {
	return func(o *distOptions) { o.rec = rec }
}

// WithTelemetry attaches this rank's cluster telemetry plane: each
// completed transform ships a fresh stat frame to rank 0 (one pointer
// test on the execution path; nil leaves the run exactly as without the
// option). The plane's lifetime belongs to the caller — the run only
// notifies it.
func WithTelemetry(p *telemetry.Plane) DistOption {
	return func(o *distOptions) { o.tele = p }
}
