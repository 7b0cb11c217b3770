package core

import (
	"context"
	"math"
	"testing"
	"time"

	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// TestTelemetryOffOverheadGuard bounds the cost of the disabled
// telemetry plane: a distributed run carrying WithTelemetry(nil) must
// stay within 1.5× of one without the option (best of 8 runs each, the
// two arms interleaved — a deliberately lenient bound so scheduler noise
// cannot fail CI). The nil plane is a single pointer test at
// end-of-transform, the same off-switch contract as the recorder and the
// tracer.
func TestTelemetryOffOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	const n, ranks = 8192, 4
	pl, err := NewPlan(Params{N: n, P: 8, Mu: 5, Nu: 4, B: 48})
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 7)
	got := make([]complex128, n)
	nLocal := n / ranks
	oneRun := func(opts ...DistOption) time.Duration {
		w, err := mpi.NewWorld(ranks)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		err = w.Run(func(c *mpi.Comm) error {
			in := src[c.Rank()*nLocal : (c.Rank()+1)*nLocal]
			out := got[c.Rank()*nLocal : (c.Rank()+1)*nLocal]
			_, err := pl.RunDistributed(context.Background(), c, out, in, opts...)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	// The arms alternate run by run, so load that arrives mid-test lands
	// on both instead of on whichever arm was measuring.
	oneRun() // warm caches before measuring
	oneRun(WithTelemetry(nil))
	dPlain, dOff := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 8; i++ {
		dPlain = min(dPlain, oneRun())
		dOff = min(dOff, oneRun(WithTelemetry(nil)))
	}
	if float64(dOff) > 1.5*float64(dPlain) {
		t.Errorf("telemetry-off overhead: plain %v, with nil plane %v (>1.5x)", dPlain, dOff)
	}
}
