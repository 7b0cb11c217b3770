package core

import (
	"soifft/internal/instrument"
	"soifft/internal/telemetry"
)

// DistOption configures one distributed transform run (see
// Plan.RunDistributed).
type DistOption func(*distOptions)

type distOptions struct {
	coded    bool
	parity   int
	window   int
	adaptive bool
	inverse  bool // set by RunDistributedInverse, not an option
	rec      *instrument.Recorder
	tele     *telemetry.Plane
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
// mid-exchange (bit-exact, reported via *DegradedError); m = 0 means
// detection without repair. The protocol contract (outcomes, what deaths
// it survives) is documented on runCoded in coded.go.
func WithCoding(m int) DistOption {
	return func(o *distOptions) { o.coded = true; o.parity = m }
}

// WithAsyncWindow streams the exchange in chunks with at most w chunks
// in flight (queued but unflushed) per destination link, overlapping
// wire time with convolution on the send side and with segment assembly
// on the receive side. w <= 0 selects the blocking exchange (the
// default). Results are bit-identical to the blocking exchange for every
// window.
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
// thrash the schedule. An explicit WithAsyncWindow(w > 0) in the same
// run overrides the controller. Composes with WithCoding. Results remain
// bit-identical to the blocking exchange at every chosen window.
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
