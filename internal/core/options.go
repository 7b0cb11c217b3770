package core

import (
	"soifft/internal/instrument"
	"soifft/internal/telemetry"
)

// DistOption configures one distributed transform run (see
// Plan.RunDistributed).
type DistOption func(*distOptions)

type distOptions struct {
	coded   bool
	parity  int
	window  int
	inverse bool // set by RunDistributedInverse and the node inverse, not an option
	workers int  // set by the node entry points, not an option: 0 is max(Params.Workers, 1)
	rec     *instrument.Recorder
	tele    *telemetry.Plane
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
// mid-exchange; m = 0 means detection without repair. Each rank encodes
// its R outgoing chunks (its own included) into m parity shares over
// GF(2^8), tile by tile as they are packed, and sends share i to rank+1+i
// after its data.
//
// Outcomes:
//   - no loss: identical to the uncoded run, bit for bit, at a wire cost
//     of (R−1+m)/(R−1) times the plain exchange;
//   - ranks die but every lost codeword retains ≥ R of its R+m shares
//     (guaranteed for any single death with m ≥ 1 when the victim's
//     sends flushed): every survivor finishes with the bit-exact
//     spectrum and returns *DegradedError naming the reconstructed
//     ranks; the coordinator additionally recomputes the dead ranks'
//     output blocks (DegradedError.TakenOver, routed by GatherDegraded);
//   - loss beyond the budget: every survivor returns a typed
//     *UnrecoverableLossError naming the dead peers, within the
//     transport's deadline bounds.
//
// Deaths are detected by a two-round view/agreement exchange after the
// data and parity fan-out, so the protocol handles ranks that crash up
// to that point. Deaths during the recovery itself surface as typed
// transport errors (clean failure, never a wrong answer). Parity,
// detection and recovery are booked as exchange time.
//
// Only a clean run returns its workspace to the plan; a degraded or
// failed one drops it, and TakenOver blocks are caller-owned makes.
func WithCoding(m int) DistOption {
	return func(o *distOptions) { o.coded = true; o.parity = m }
}

// WithAsyncWindow streams the exchange in per-tile chunks with at most w
// chunks in flight (queued but unflushed) per destination link,
// overlapping wire time with convolution. w <= 0 (the default) is the
// same stream with one chunk per destination, sent once the last row is
// packed: the blocking exchange. Results are bit-identical for every
// window.
func WithAsyncWindow(w int) DistOption {
	return func(o *distOptions) {
		if w < 0 {
			w = 0
		}
		o.window = w
	}
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
