package soifft_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"soifft"
	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/signal"
)

// TestReportDistributedCommVolume is the ground-truth check on the
// communication counters: a distributed SOI transform over R ranks must
// record exactly one all-to-all carrying 16·(1+β)·N·(R−1)/R bytes of
// inter-rank payload — the analytic volume the paper's 3/(1+β) advantage
// rests on — and the plan's own counters must agree with the world's
// independent fabric statistics.
func TestReportDistributedCommVolume(t *testing.T) {
	const (
		n     = 4096
		ranks = 4
	)
	p, err := soifft.NewPlan(n, soifft.WithSegments(8), soifft.WithTaps(48),
		soifft.WithInstrumentation(soifft.InstrumentCounters))
	if err != nil {
		t.Fatal(err)
	}
	w, err := soifft.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 1)
	dst := make([]complex128, n)
	if err := p.TransformDistributed(w, dst, src); err != nil {
		t.Fatal(err)
	}

	rep := p.Report()
	// μ/ν = 5/4 → N' = 5120; inter-rank payload excludes each rank's
	// self-chunk: 16·5120·3/4 = 61440 bytes.
	nPrime := n * 5 / 4
	want := int64(16 * nPrime * (ranks - 1) / ranks)
	if rep.Comm.Alltoalls != 1 {
		t.Errorf("alltoalls = %d, want 1", rep.Comm.Alltoalls)
	}
	if rep.Comm.AlltoallBytes != want {
		t.Errorf("alltoall bytes = %d, want %d", rep.Comm.AlltoallBytes, want)
	}
	if got := w.Stats().AlltoallBytes; rep.Comm.AlltoallBytes != got {
		t.Errorf("plan counted %d alltoall bytes, world counted %d", rep.Comm.AlltoallBytes, got)
	}
	if rep.Transforms != ranks {
		t.Errorf("transforms = %d, want %d (one per rank)", rep.Transforms, ranks)
	}

	ref, err := soifft.FFT(src)
	if err != nil {
		t.Fatal(err)
	}
	if re := signal.RelErrL2(dst, ref); re > 1e-6 {
		t.Errorf("distributed result off: rel err %g", re)
	}
}

// TestReportStageTimers checks the per-stage data a timer-level plan
// accumulates for shared-memory transforms.
func TestReportStageTimers(t *testing.T) {
	p, err := soifft.NewPlan(4096, soifft.WithSegments(8), soifft.WithTaps(48),
		soifft.WithInstrumentation(soifft.InstrumentTimers))
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(4096, 2)
	dst := make([]complex128, 4096)
	for i := 0; i < 3; i++ {
		if err := p.Transform(dst, src); err != nil {
			t.Fatal(err)
		}
	}

	rep := p.Report()
	if rep.Level != soifft.InstrumentTimers {
		t.Errorf("level = %v, want timers", rep.Level)
	}
	if rep.Transforms != 3 {
		t.Errorf("transforms = %d, want 3", rep.Transforms)
	}
	seen := map[string]soifft.StageReport{}
	for _, st := range rep.Stages {
		seen[st.Stage] = st
	}
	for _, name := range []string{"convolve", "exchange", "segment_fft", "demod"} {
		st, ok := seen[name]
		if !ok || st.Calls != 3 {
			t.Errorf("stage %s: calls = %d, want 3", name, st.Calls)
			continue
		}
		// The demodulation is fused into the segment FFT's last pass:
		// its flops are booked on its own stage, its wall on segment_fft.
		if name == "demod" {
			if st.Wall != 0 || st.Flops <= 0 {
				t.Errorf("stage demod: wall = %v, flops = %d; want 0 and > 0 (fused into segment_fft)", st.Wall, st.Flops)
			}
			continue
		}
		if st.Wall <= 0 {
			t.Errorf("stage %s: wall = %v, want > 0 at timer level", name, st.Wall)
		}
	}
	if conv := seen["convolve"]; conv.Flops <= 0 || conv.GFlopsPerSec <= 0 {
		t.Errorf("convolve: flops %d, rate %g — want positive", conv.Flops, conv.GFlopsPerSec)
	}
	if occ := seen["convolve"].Occupancy; occ < 0 || occ > 1.000001 {
		t.Errorf("convolve occupancy %g outside [0,1]", occ)
	}

	// String() renders every active stage and names the kernel that ran.
	s := rep.String()
	for _, name := range []string{"convolve", "segment_fft", "demod", "convolve kernel: " + core.ConvolveKernel(), "fft kernel: " + fft.Kernel()} {
		if !strings.Contains(s, name) {
			t.Errorf("Report.String() missing %q:\n%s", name, s)
		}
	}

	p.ResetReport()
	if after := p.Report(); after.Transforms != 0 || after.Level != soifft.InstrumentTimers {
		t.Errorf("after reset: transforms=%d level=%v", after.Transforms, after.Level)
	}
}

// TestReportOffByDefault: an uninstrumented plan reports zeros and level
// off.
func TestReportOffByDefault(t *testing.T) {
	p, err := soifft.NewPlan(1024, soifft.WithSegments(4), soifft.WithTaps(24))
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(1024, 3)
	dst := make([]complex128, 1024)
	if err := p.Transform(dst, src); err != nil {
		t.Fatal(err)
	}
	rep := p.Report()
	if rep.Level != soifft.InstrumentOff || rep.Transforms != 0 {
		t.Errorf("uninstrumented plan recorded data: level=%v transforms=%d", rep.Level, rep.Transforms)
	}
	if p.InstrumentationLevel() != soifft.InstrumentOff {
		t.Errorf("InstrumentationLevel = %v, want off", p.InstrumentationLevel())
	}

	// Attach, observe, detach.
	p.Instrument(soifft.InstrumentCounters)
	if err := p.Transform(dst, src); err != nil {
		t.Fatal(err)
	}
	if rep := p.Report(); rep.Transforms != 1 {
		t.Errorf("after Instrument(counters): transforms=%d, want 1", rep.Transforms)
	}
	p.Instrument(soifft.InstrumentOff)
	if rep := p.Report(); rep.Transforms != 0 {
		t.Errorf("after detach: transforms=%d, want 0", rep.Transforms)
	}
}

// TestWriteMetrics checks the Prometheus text rendering.
func TestWriteMetrics(t *testing.T) {
	p, err := soifft.NewPlan(1024, soifft.WithSegments(4), soifft.WithTaps(24),
		soifft.WithInstrumentation(soifft.InstrumentCounters))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, 1024)
	if err := p.Transform(dst, signal.Random(1024, 4)); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := p.WriteMetrics(&b, map[string]string{"plan": "test"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`soifft_transforms_total{plan="test"} 1`,
		`stage="convolve"`,
		"# TYPE soifft_transforms_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}

// TestConfigSnapshot: Config must expose the resolved parameters the
// deprecated Internal() escape hatch was used for.
func TestConfigSnapshot(t *testing.T) {
	p, err := soifft.NewPlan(4096, soifft.WithSegments(8), soifft.WithTaps(48))
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Config()
	if cfg.N != 4096 || cfg.Segments != 8 || cfg.SegmentLen != 512 {
		t.Errorf("shape: N=%d P=%d M=%d", cfg.N, cfg.Segments, cfg.SegmentLen)
	}
	if cfg.Mu != 5 || cfg.Nu != 4 || math.Abs(cfg.Beta-0.25) > 1e-15 {
		t.Errorf("oversampling: mu=%d nu=%d beta=%g", cfg.Mu, cfg.Nu, cfg.Beta)
	}
	if cfg.OversampledLen != 640 { // (1+β)·M = 5/4·512
		t.Errorf("OversampledLen = %d, want 640", cfg.OversampledLen)
	}
	if cfg.Taps != 48 {
		t.Errorf("Taps = %d, want 48", cfg.Taps)
	}
	if cfg.Window == "" {
		t.Error("Window is empty")
	}
	if cfg.PredictedDigits <= 0 {
		t.Errorf("PredictedDigits = %g, want > 0", cfg.PredictedDigits)
	}
	// The deprecated escape hatch must keep working until v2.
	if p.Internal() == nil {
		t.Error("Internal() returned nil")
	}
}

// TestErrorTaxonomy: every validation failure must be classifiable with
// errors.Is against the exported sentinels.
func TestErrorTaxonomy(t *testing.T) {
	p, err := soifft.NewPlan(1024, soifft.WithSegments(4), soifft.WithTaps(24))
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(1024, 5)
	dst := make([]complex128, 1024)

	if err := p.Transform(dst[:100], src); !errors.Is(err, soifft.ErrLength) {
		t.Errorf("short dst: %v, want ErrLength", err)
	}
	if err := p.Transform(src, src); !errors.Is(err, soifft.ErrAlias) {
		t.Errorf("aliased dst: %v, want ErrAlias", err)
	}
	seg := make([]complex128, p.SegmentLen())
	if err := p.TransformSegment(seg, src, 99); !errors.Is(err, soifft.ErrSegmentRange) {
		t.Errorf("segment 99: %v, want ErrSegmentRange", err)
	}
	if err := p.TransformSegment(seg, src, -1); !errors.Is(err, soifft.ErrSegmentRange) {
		t.Errorf("segment -1: %v, want ErrSegmentRange", err)
	}
	if _, err := soifft.RFFT(make([]float64, 7)); !errors.Is(err, soifft.ErrLength) {
		t.Errorf("odd RFFT: %v, want ErrLength", err)
	}

	// Plan/world mismatch: 4 segments cannot be split over 3 ranks.
	w, err := soifft.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TransformDistributed(w, dst, src); !errors.Is(err, soifft.ErrPlanMismatch) {
		t.Errorf("3 ranks over P=4: %v, want ErrPlanMismatch", err)
	}
}

// TestContextCancellation: a cancelled context stops the transform with
// its own error.
func TestContextCancellation(t *testing.T) {
	p, err := soifft.NewPlan(1024, soifft.WithSegments(4), soifft.WithTaps(24))
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(1024, 6)
	dst := make([]complex128, 1024)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.TransformContext(ctx, dst, src); !errors.Is(err, context.Canceled) {
		t.Errorf("TransformContext on cancelled ctx: %v, want context.Canceled", err)
	}
	if err := p.InverseContext(ctx, dst, src); !errors.Is(err, context.Canceled) {
		t.Errorf("InverseContext: %v, want context.Canceled", err)
	}
	seg := make([]complex128, p.SegmentLen())
	if err := p.TransformSegmentContext(ctx, seg, src, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("TransformSegmentContext: %v, want context.Canceled", err)
	}
	if err := p.TransformBatchContext(ctx, dst, src, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("TransformBatchContext: %v, want context.Canceled", err)
	}
	w, err := soifft.NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.TransformDistributedContext(ctx, w, dst, src); !errors.Is(err, context.Canceled) {
		t.Errorf("TransformDistributedContext: %v, want context.Canceled", err)
	}

	// A live context must not interfere.
	if err := p.TransformContext(context.Background(), dst, src); err != nil {
		t.Errorf("TransformContext with live ctx: %v", err)
	}
}

// TestRFFTAgainstFFT: the half spectrum must equal the first n/2+1 bins
// of the complex FFT of the same (real) input, and IRFFT must invert it.
func TestRFFTAgainstFFT(t *testing.T) {
	const n = 1024
	x := make([]float64, n)
	xc := make([]complex128, n)
	for i := range x {
		x[i] = math.Sin(0.37*float64(i)) + 0.25*math.Cos(0.011*float64(i)*float64(i))
		xc[i] = complex(x[i], 0)
	}

	half, err := soifft.RFFT(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(half) != n/2+1 {
		t.Fatalf("half spectrum length %d, want %d", len(half), n/2+1)
	}
	ref, err := soifft.FFT(xc)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= n/2; k++ {
		if d := cmplxAbs(half[k] - ref[k]); d > 1e-9 {
			t.Fatalf("bin %d: RFFT %v vs FFT %v (|Δ| = %g)", k, half[k], ref[k], d)
		}
	}
	// DC and Nyquist are purely real for real input.
	if imag(half[0]) != 0 || math.Abs(imag(half[n/2])) > 1e-9 {
		t.Errorf("DC/Nyquist not real: %v, %v", half[0], half[n/2])
	}

	back, err := soifft.IRFFT(half)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if d := math.Abs(back[i] - x[i]); d > 1e-10 {
			t.Fatalf("IRFFT[%d] = %g, want %g", i, back[i], x[i])
		}
	}
}

// TestRealPlanReuse: NewRealPlan caches by length, and the plan validates
// argument lengths with typed errors.
func TestRealPlanReuse(t *testing.T) {
	p1, err := soifft.NewRealPlan(256)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := soifft.NewRealPlan(256)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("NewRealPlan(256) did not return the cached plan")
	}
	if p1.N() != 256 {
		t.Errorf("N() = %d", p1.N())
	}
	if err := p1.Forward(make([]complex128, 10), make([]float64, 256)); !errors.Is(err, soifft.ErrLength) {
		t.Errorf("short dst: %v, want ErrLength", err)
	}
	if err := p1.Inverse(make([]float64, 256), make([]complex128, 10)); !errors.Is(err, soifft.ErrLength) {
		t.Errorf("short spectrum: %v, want ErrLength", err)
	}
	if _, err := soifft.NewRealPlan(0); !errors.Is(err, soifft.ErrLength) {
		t.Errorf("zero length: %v, want ErrLength", err)
	}
	if _, err := soifft.IRFFT(make([]complex128, 1)); !errors.Is(err, soifft.ErrLength) {
		t.Errorf("1-bin IRFFT: %v, want ErrLength", err)
	}
}

// TestInstrumentationOffOverheadGuard bounds the cost of the disabled
// instrumentation path: a plan built with WithInstrumentation(off) must
// run within 1.5× of a plain plan (best of 100 runs each, the two arms
// interleaved op by op — a deliberately lenient bound so scheduler
// noise cannot fail CI; the precise number, historically ~0–2%, comes
// from the BenchmarkObservability pair).
func TestInstrumentationOffOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short")
	}
	const n = 8192
	build := func(opts ...soifft.Option) *soifft.Plan {
		opts = append(opts, soifft.WithSegments(8), soifft.WithTaps(48))
		p, err := soifft.NewPlan(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain := build()
	off := build(soifft.WithInstrumentation(soifft.InstrumentOff))
	src := signal.Random(n, 7)
	dst := make([]complex128, n)

	run := func(p *soifft.Plan) time.Duration {
		t0 := time.Now()
		if err := p.Transform(dst, src); err != nil {
			t.Fatal(err)
		}
		return time.Since(t0)
	}
	// Warm both plans, then alternate the arms op by op, the first arm
	// swapped every pair, so a burst of load from elsewhere lands on
	// both; a transform here is ≈ 0.1 ms, so take the best of many.
	for range 5 {
		run(plain)
		run(off)
	}
	dPlain, dOff := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := range 100 {
		if i%2 == 0 {
			dPlain = min(dPlain, run(plain))
			dOff = min(dOff, run(off))
		} else {
			dOff = min(dOff, run(off))
			dPlain = min(dPlain, run(plain))
		}
	}
	if float64(dOff) > 1.5*float64(dPlain) {
		t.Errorf("instrumentation-off overhead: plain %v, off %v (>1.5x)", dPlain, dOff)
	}
}

func cmplxAbs(c complex128) float64 {
	return math.Hypot(real(c), imag(c))
}
