package soifft_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"soifft"
	"soifft/internal/signal"
)

// perfettoDoc decodes the exported trace-event JSON for assertions.
type perfettoDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// TestTracedDistributedTransform is the end-to-end tracing acceptance
// check: a distributed transform over 4 in-process ranks under one
// traced context must export a Perfetto timeline where every rank
// contributed spans, every span carries the caller's trace ID, and each
// rank shows exactly one all-to-all exchange — the algorithm's
// single-communication signature, now visible per request.
func TestTracedDistributedTransform(t *testing.T) {
	const (
		n     = 4096
		ranks = 4
	)
	plan, err := soifft.NewPlan(n, soifft.WithSegments(8), soifft.WithTaps(48))
	if err != nil {
		t.Fatal(err)
	}
	w, err := soifft.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	tracer := soifft.NewTracer(1 << 12)
	id := soifft.NewTraceID()
	ctx := soifft.WithTracer(soifft.WithTraceID(context.Background(), id), tracer)

	src := signal.Random(n, 21)
	dst := make([]complex128, n)
	if err := plan.TransformDistributedContext(ctx, w, dst, src); err != nil {
		t.Fatal(err)
	}
	ref, err := soifft.FFT(src)
	if err != nil {
		t.Fatal(err)
	}
	if e := signal.RelErrL2(dst, ref); e > 1e-3 {
		t.Fatalf("traced transform wrong: rel err %.3e", e)
	}

	var buf bytes.Buffer
	if err := tracer.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	exchanges := map[int]int{}   // pid -> exchange begin count
	spansPerPid := map[int]int{} // pid -> all begins
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "B" {
			continue
		}
		spansPerPid[ev.PID]++
		if got := ev.Args["trace"]; got != id.String() {
			t.Fatalf("span %q on pid %d carries trace %v, want %v", ev.Name, ev.PID, got, id)
		}
		if ev.Name == "exchange" {
			exchanges[ev.PID]++
		}
	}
	for r := 0; r < ranks; r++ {
		pid := r + 1
		if spansPerPid[pid] == 0 {
			t.Errorf("rank %d contributed no spans", r)
		}
		if exchanges[pid] != 1 {
			t.Errorf("rank %d shows %d exchange spans, want exactly 1 (the single all-to-all)", r, exchanges[pid])
		}
	}
}

// TestTracingOffOverheadGuard bounds the cost of the disabled tracing
// path: running through TransformContext with no tracer anywhere must
// stay within 1.5× of the plain entry point (best of 100 runs each, the
// two arms interleaved op by op — a deliberately lenient bound so
// scheduler noise cannot fail CI; the precise number comes from
// BenchmarkObservability's tracer rows).
func TestTracingOffOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	const n = 8192
	plan, err := soifft.NewPlan(n, soifft.WithSegments(8), soifft.WithTaps(48))
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 7)
	dst := make([]complex128, n)
	ctx := context.Background()

	run := func(transform func() error) time.Duration {
		t0 := time.Now()
		if err := transform(); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	plain := func() error { return plan.Transform(dst, src) }
	untraced := func() error { return plan.TransformContext(ctx, dst, src) }
	// Warm both arms, then alternate them op by op, the first arm
	// swapped every pair, so a burst of load from elsewhere lands on
	// both; a transform here is ≈ 0.1 ms, so take the best of many.
	for range 5 {
		run(plain)
		run(untraced)
	}
	dPlain, dOff := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := range 100 {
		if i%2 == 0 {
			dPlain = min(dPlain, run(plain))
			dOff = min(dOff, run(untraced))
		} else {
			dOff = min(dOff, run(untraced))
			dPlain = min(dPlain, run(plain))
		}
	}
	if float64(dOff) > 1.5*float64(dPlain) {
		t.Errorf("tracing-off overhead: plain %v, untraced ctx %v (>1.5x)", dPlain, dOff)
	}
}
