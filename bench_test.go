package soifft

// Microbenchmarks of the public transform: the shared-memory pipeline
// by size, and the cost of each instrumentation level on it.

import (
	"context"
	"math"
	"strconv"
	"testing"

	"soifft/internal/signal"
)

// BenchmarkTransform measures the full shared-memory SOI pipeline.
func BenchmarkTransform(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		b.Run(sizeName(n), func(b *testing.B) {
			plan, err := NewPlan(n)
			if err != nil {
				b.Fatal(err)
			}
			src := signal.Random(n, 4)
			dst := make([]complex128, n)
			b.SetBytes(int64(n) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plan.Transform(dst, src); err != nil {
					b.Fatal(err)
				}
			}
			reportGFLOPS(b, 5*float64(n)*math.Log2(float64(n)))
		})
	}
}

// BenchmarkTransformSegment measures segment pursuit on the node: one
// segment of the spectrum, the convolution plus one M'-point FFT.
func BenchmarkTransformSegment(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 20} {
		b.Run(sizeName(n), func(b *testing.B) {
			plan, err := NewPlan(n)
			if err != nil {
				b.Fatal(err)
			}
			src := signal.Random(n, 4)
			seg := make([]complex128, plan.SegmentLen())
			b.SetBytes(int64(n) * 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plan.TransformSegment(seg, src, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObservability measures the cost of each instrumentation level
// on the shared-memory transform; the "off" row is the basis of the
// near-zero-overhead-when-off claim (compare against BenchmarkTransform
// or the plain sub-benchmark here).
func BenchmarkObservability(b *testing.B) {
	const n = 1 << 18
	levels := []struct {
		name string
		opts []Option
	}{
		{"plain", nil},
		{"off", []Option{WithInstrumentation(InstrumentOff)}},
		{"counters", []Option{WithInstrumentation(InstrumentCounters)}},
		{"timers", []Option{WithInstrumentation(InstrumentTimers)}},
	}
	for _, lv := range levels {
		b.Run(lv.name, func(b *testing.B) {
			plan, err := NewPlan(n, lv.opts...)
			if err != nil {
				b.Fatal(err)
			}
			src := signal.Random(n, 4)
			dst := make([]complex128, n)
			b.SetBytes(int64(n) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plan.Transform(dst, src); err != nil {
					b.Fatal(err)
				}
			}
			reportGFLOPS(b, 5*float64(n)*math.Log2(float64(n)))
		})
	}

	// Event-tracing rows: "tracer-off" is the disabled path (context
	// plumbed, no tracer anywhere — must price like plain; the ≤2% CI
	// guard compares these two), "tracer-on" records every stage span
	// into the ring.
	tracerRuns := []struct {
		name string
		ctx  func() context.Context
	}{
		{"tracer-off", context.Background},
		{"tracer-on", func() context.Context {
			return WithTracer(WithTraceID(context.Background(), NewTraceID()), NewTracer(0))
		}},
	}
	for _, tc := range tracerRuns {
		b.Run(tc.name, func(b *testing.B) {
			plan, err := NewPlan(n)
			if err != nil {
				b.Fatal(err)
			}
			ctx := tc.ctx()
			src := signal.Random(n, 4)
			dst := make([]complex128, n)
			b.SetBytes(int64(n) * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := plan.TransformContext(ctx, dst, src); err != nil {
					b.Fatal(err)
				}
			}
			reportGFLOPS(b, 5*float64(n)*math.Log2(float64(n)))
		})
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return strconv.Itoa(n>>20) + "Mi"
	case n >= 1<<10 && n%(1<<10) == 0:
		return strconv.Itoa(n>>10) + "Ki"
	default:
		return strconv.Itoa(n)
	}
}

func reportGFLOPS(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}
