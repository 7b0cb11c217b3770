package soifft

// One benchmark per table/figure of the paper's evaluation (Section 7),
// plus microbenchmarks of the kernels the figures are built from. The
// figure benchmarks regenerate the experiment's data each iteration and
// report the headline quantity (speedup, SNR, …) as a custom metric;
// `go run ./cmd/soibench` prints the same data as tables.

import (
	"context"
	"math"
	"testing"

	"soifft/internal/baseline"
	"soifft/internal/bench"
	"soifft/internal/mpi"
	"soifft/internal/netsim"
	"soifft/internal/signal"
)

func benchConfig(b *testing.B) bench.Config {
	b.Helper()
	cfg, err := bench.DefaultConfig()
	if err != nil {
		b.Fatal(err)
	}
	return cfg
}

// BenchmarkTable1Systems regenerates the system-configuration table.
func BenchmarkTable1Systems(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tb := bench.Table1(); len(tb.Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkFig5EndeavorWeakScaling regenerates the fat-tree comparison
// and reports the 64-node SOI speedup (paper: up to ~1.9x).
func BenchmarkFig5EndeavorWeakScaling(b *testing.B) {
	cfg := benchConfig(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		if tb := bench.Fig5(cfg); len(tb.Rows) == 0 {
			b.Fatal("empty figure")
		}
		m := cfg.Cal.Model(netsim.Endeavor(), cfg.PointsPerNode, cfg.Beta, cfg.B)
		speedup = m.Speedup(64)
	}
	b.ReportMetric(speedup, "speedup64")
}

// BenchmarkFig6GordonWeakScaling regenerates the 3-D torus comparison
// and reports the 64-node speedup (paper: grows beyond Endeavor's).
func BenchmarkFig6GordonWeakScaling(b *testing.B) {
	cfg := benchConfig(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		if tb := bench.Fig6(cfg); len(tb.Rows) == 0 {
			b.Fatal("empty figure")
		}
		m := cfg.Cal.Model(netsim.Gordon(), cfg.PointsPerNode, cfg.Beta, cfg.B)
		speedup = m.Speedup(64)
	}
	b.ReportMetric(speedup, "speedup64")
}

// BenchmarkFig7AccuracyTradeoff regenerates the accuracy ladder (real
// transforms per rung) and reports the speedup of the lowest rung.
func BenchmarkFig7AccuracyTradeoff(b *testing.B) {
	cfg := benchConfig(b)
	for i := 0; i < b.N; i++ {
		tb, err := bench.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tb.Rows) < 4 {
			b.Fatal("missing rungs")
		}
	}
}

// BenchmarkFig8EthernetSpeedup regenerates the communication-bound 10GbE
// experiment; the reported speedup should sit near 3/(1+β) = 2.4.
func BenchmarkFig8EthernetSpeedup(b *testing.B) {
	cfg := benchConfig(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		if tb := bench.Fig8(cfg); len(tb.Rows) == 0 {
			b.Fatal("empty figure")
		}
		m := cfg.Cal.Model(netsim.TenGigE(), cfg.PointsPerNode, cfg.Beta, cfg.B)
		speedup = m.Speedup(32)
	}
	b.ReportMetric(speedup, "speedup32")
}

// BenchmarkFig9Projection regenerates the torus projection and reports
// the Jaguar-scale (16K nodes) speedup at c = 1.
func BenchmarkFig9Projection(b *testing.B) {
	cfg := benchConfig(b)
	var speedup float64
	for i := 0; i < b.N; i++ {
		tb := bench.Fig9(cfg)
		if len(tb.Rows) != 9 {
			b.Fatal("bad projection")
		}
		m := cfg.Cal.Model(netsim.Gordon(), cfg.PointsPerNode, cfg.Beta, cfg.B)
		speedup = m.Speedup(16000)
	}
	b.ReportMetric(speedup, "speedup16k")
}

// BenchmarkSNRFullAccuracy measures the real SOI SNR at the paper's
// full-accuracy setting (paper: ~290 dB, one digit below conventional).
func BenchmarkSNRFullAccuracy(b *testing.B) {
	const n = 4096
	plan, err := NewPlan(n, WithAccuracy(AccuracyFull))
	if err != nil {
		b.Fatal(err)
	}
	src := signal.Random(n, 9)
	ref, err := FFT(src)
	if err != nil {
		b.Fatal(err)
	}
	got := make([]complex128, n)
	var snr float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := plan.Transform(got, src); err != nil {
			b.Fatal(err)
		}
		snr = signal.SNRdB(got, ref)
	}
	b.ReportMetric(snr, "SNRdB")
}

// --- kernel microbenchmarks ---

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

// BenchmarkSixStepBaseline runs the triple-all-to-all comparator.
func BenchmarkSixStepBaseline(b *testing.B) {
	const n, ranks = 1 << 18, 8
	src := signal.Random(n, 6)
	dst := make([]complex128, n)
	nLocal := n / ranks
	alg := baseline.SixStep{}
	b.SetBytes(int64(n) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := mpi.NewWorld(ranks)
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(c *mpi.Comm) error {
			_, err := alg.Transform(c,
				dst[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
				src[c.Rank()*nLocal:(c.Rank()+1)*nLocal], n)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAlltoall measures the in-process exchange primitive itself.
func BenchmarkAlltoall(b *testing.B) {
	const ranks, chunk = 8, 1 << 14
	b.SetBytes(int64(ranks) * ranks * chunk * 16)
	for i := 0; i < b.N; i++ {
		w, err := mpi.NewWorld(ranks)
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(c *mpi.Comm) error {
			send := make([]complex128, ranks*chunk)
			c.Alltoall(send, chunk)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return itoa(n>>20) + "Mi"
	case n >= 1<<10 && n%(1<<10) == 0:
		return itoa(n>>10) + "Ki"
	default:
		return itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func reportGFLOPS(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}
