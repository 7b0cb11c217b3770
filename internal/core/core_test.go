package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"strings"
	"testing"

	"soifft/internal/fft"
	"soifft/internal/signal"
	"soifft/internal/window"
)

// soiVsDirect runs the SOI transform and returns the relative L2 error
// against the O(N²) direct DFT.
func soiVsDirect(t *testing.T, p Params, seed int64) float64 {
	t.Helper()
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatalf("NewPlan(%+v): %v", p, err)
	}
	src := signal.Random(p.N, seed)
	want := make([]complex128, p.N)
	fft.Direct(want, src)
	got := make([]complex128, p.N)
	if err := pl.Transform(got, src); err != nil {
		t.Fatalf("Transform: %v", err)
	}
	return signal.RelErrL2(got, want)
}

func TestSOIMatchesDirectSmall(t *testing.T) {
	// Moderate taps on a small problem: expect ~12+ digits.
	p := Params{N: 256, P: 4, Mu: 5, Nu: 4, B: 48}
	if e := soiVsDirect(t, p, 1); e > 1e-11 {
		t.Errorf("relative error %.3e, want < 1e-11", e)
	}
}

func TestSOIFullAccuracy(t *testing.T) {
	// The paper's full-accuracy configuration: B = 72, β = 1/4. Expect
	// ~14 digits (SNR ≈ 290 dB when averaged over spectra).
	p := Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 72}
	if e := soiVsDirect(t, p, 2); e > 5e-13 {
		t.Errorf("relative error %.3e, want < 5e-13", e)
	}
}

func TestSOIAcrossShapes(t *testing.T) {
	cases := []Params{
		{N: 64, P: 1, Mu: 5, Nu: 4, B: 32},    // single segment
		{N: 128, P: 2, Mu: 5, Nu: 4, B: 40},   // two segments
		{N: 512, P: 16, Mu: 5, Nu: 4, B: 32},  // many short segments
		{N: 480, P: 4, Mu: 5, Nu: 4, B: 48},   // non-power-of-two N (M=120)
		{N: 768, P: 8, Mu: 5, Nu: 4, B: 48},   // 3·2^8 per segment
		{N: 256, P: 4, Mu: 3, Nu: 2, B: 40},   // β = 1/2
		{N: 256, P: 4, Mu: 9, Nu: 8, B: 56},   // β = 1/8 (tight oversampling)
		{N: 1024, P: 4, Mu: 2, Nu: 1, B: 40},  // β = 1 (generous)
		{N: 2048, P: 32, Mu: 5, Nu: 4, B: 56}, // larger P
	}
	for _, p := range cases {
		pl, err := NewPlan(p)
		if err != nil {
			t.Errorf("NewPlan(%+v): %v", p, err)
			continue
		}
		e := soiVsDirect(t, p, int64(p.N+p.P))
		// Tolerance from the plan's own error prediction, with headroom
		// for the FFT and the looseness of the integral bounds.
		tol := math.Max(pl.Metrics().TotalError()*100, 1e-11)
		if e > tol {
			t.Errorf("params %+v: relative error %.3e > tol %.3e (predicted %.3e)",
				p, e, tol, pl.Metrics().TotalError())
		}
	}
}

func TestSOIDeterministicAndWorkerInvariant(t *testing.T) {
	p := Params{N: 512, P: 8, Mu: 5, Nu: 4, B: 48}
	src := signal.Random(p.N, 3)
	var ref []complex128
	for _, workers := range []int{1, 2, 3, 8} {
		p.Workers = workers
		pl, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, p.N)
		if err := pl.Transform(got, src); err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = append([]complex128(nil), got...)
			continue
		}
		if e := signal.MaxAbsErr(got, ref); e != 0 {
			t.Errorf("workers=%d: result differs from workers=1 by %.3e", workers, e)
		}
	}
}

func TestSOIStructuredInputs(t *testing.T) {
	p := Params{N: 512, P: 8, Mu: 5, Nu: 4, B: 64}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string][]complex128{
		"impulse0":   signal.Impulse(p.N, 0),
		"impulseMid": signal.Impulse(p.N, p.N/2),
		"tone":       signal.Tones(p.N, []int{37}, []complex128{1}),
		"toneHigh":   signal.Tones(p.N, []int{p.N - 3}, []complex128{2i}),
		"chirp":      signal.Chirp(p.N, 0, float64(p.N)/2),
		"constant":   signal.Tones(p.N, []int{0}, []complex128{1}),
	}
	for name, src := range inputs {
		want := make([]complex128, p.N)
		fft.Direct(want, src)
		got := make([]complex128, p.N)
		if err := pl.Transform(got, src); err != nil {
			t.Fatal(err)
		}
		// Structured inputs have sparse spectra; use absolute error
		// scaled by the spectrum's energy.
		if e := signal.MaxAbsErr(got, want); e > 1e-10*float64(p.N) {
			t.Errorf("%s: max abs error %.3e", name, e)
		}
	}
}

func TestSOISegmentBoundaries(t *testing.T) {
	// Demodulation divides by the window edge values; verify the error is
	// not concentrated catastrophically at segment boundaries.
	p := Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 72}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(p.N, 9)
	want := make([]complex128, p.N)
	fft.Direct(want, src)
	got := make([]complex128, p.N)
	if err := pl.Transform(got, src); err != nil {
		t.Fatal(err)
	}
	m := pl.M()
	for s := 0; s < p.P; s++ {
		edge := signal.MaxAbsErr(got[s*m:s*m+2], want[s*m:s*m+2])
		last := signal.MaxAbsErr(got[(s+1)*m-2:(s+1)*m], want[(s+1)*m-2:(s+1)*m])
		if edge > 1e-9 || last > 1e-9 {
			t.Errorf("segment %d: boundary errors %.3e / %.3e", s, edge, last)
		}
	}
}

func TestGaussianWindowAccuracyCeiling(t *testing.T) {
	// Paper Section 8: with a pure Gaussian window at β = 1/4, accuracy
	// caps around 10 digits regardless of taps.
	d := window.DesignGaussian(64, 0.25)
	p := Params{N: 512, P: 8, Mu: 5, Nu: 4, B: 64, Win: d.Window}
	e := soiVsDirect(t, p, 11)
	if e > 1e-7 {
		t.Errorf("gaussian window error %.3e, want usable (~1e-8..1e-10)", e)
	}
	if e < 1e-13 {
		t.Errorf("gaussian window error %.3e suspiciously low; ceiling should bind", e)
	}
	// And the two-parameter window at identical B must be clearly better.
	p.Win = nil
	e2 := soiVsDirect(t, p, 11)
	if e2 > e/10 {
		t.Errorf("tau-sigma error %.3e not clearly better than gaussian %.3e", e2, e)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []struct {
		p    Params
		frag string
	}{
		{Params{N: 0, P: 1, Mu: 5, Nu: 4, B: 8}, "N must be positive"},
		{Params{N: 64, P: 0, Mu: 5, Nu: 4, B: 8}, "P must be positive"},
		{Params{N: 65, P: 4, Mu: 5, Nu: 4, B: 8}, "must divide N"},
		{Params{N: 64, P: 4, Mu: 0, Nu: 4, B: 8}, "must be positive"},
		{Params{N: 64, P: 4, Mu: 4, Nu: 5, B: 8}, "must exceed 1"},
		{Params{N: 64, P: 4, Mu: 10, Nu: 8, B: 8}, "lowest terms"},
		{Params{N: 64, P: 4, Mu: 5, Nu: 4, B: 1}, "too small"},
		{Params{N: 60, P: 4, Mu: 5, Nu: 4, B: 8}, "must divide M"},
		{Params{N: 64, P: 4, Mu: 5, Nu: 4, B: 32}, "exceeds M"},
	}
	for _, c := range bad {
		err := c.p.Validate()
		if err == nil {
			t.Errorf("Validate(%+v): expected error containing %q", c.p, c.frag)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Validate(%+v) = %q, want fragment %q", c.p, err, c.frag)
		}
	}
}

func TestTransformArgumentErrors(t *testing.T) {
	p := Params{N: 256, P: 4, Mu: 5, Nu: 4, B: 32}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]complex128, p.N)
	if err := pl.Transform(buf[:100], buf); err == nil {
		t.Error("expected length error")
	}
	if err := pl.Transform(buf, buf); err == nil {
		t.Error("expected aliasing error")
	}
}

func TestPlanAccessors(t *testing.T) {
	p := Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 72}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.M() != 128 || pl.MPrime() != 160 || pl.NPrime() != 1280 {
		t.Errorf("M=%d M'=%d N'=%d", pl.M(), pl.MPrime(), pl.NPrime())
	}
	if pl.HaloLen() != 71*8 {
		t.Errorf("HaloLen = %d", pl.HaloLen())
	}
	if pl.ConvFlops() <= 0 || pl.FFTFlops() <= 0 {
		t.Error("flop counters must be positive")
	}
	if pl.Params().B != 72 {
		t.Errorf("Params not preserved: %+v", pl.Params())
	}
	// Paper Section 7.4: at B=72, convolution arithmetic is around 4× the
	// FFT arithmetic for large M. Allow a broad band at this small size.
	ratio := float64(pl.ConvFlops()) / float64(pl.FFTFlops())
	if ratio < 1 || ratio > 12 {
		t.Errorf("conv/fft flop ratio %.2f outside sanity band", ratio)
	}
	if pl.Metrics().Kappa < 1 {
		t.Errorf("kappa %.3g < 1", pl.Metrics().Kappa)
	}
}

func TestCompactSupportWindowEndToEnd(t *testing.T) {
	// Paper Section 8: compactly supported windows eliminate aliasing
	// entirely; accuracy is then set by truncation alone, which decays
	// sub-exponentially — usable, but needing more taps than tau-sigma.
	w, err := window.NewCompactBump(0.25, 80)
	if err != nil {
		t.Fatal(err)
	}
	p := Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 96, Win: w}
	e := soiVsDirect(t, p, 17)
	if e > 1e-6 {
		t.Errorf("compact window error %.3e too large to be useful", e)
	}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Metrics().EpsAlias != 0 {
		t.Errorf("aliasing should be exactly zero, got %.3g", pl.Metrics().EpsAlias)
	}
}

func TestTransformSegmentMatchesFull(t *testing.T) {
	p := Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 48}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(p.N, 23)
	full := make([]complex128, p.N)
	if err := pl.Transform(full, src); err != nil {
		t.Fatal(err)
	}
	m := pl.M()
	for s := 0; s < p.P; s++ {
		seg := make([]complex128, m)
		if err := pl.TransformSegment(seg, src, s); err != nil {
			t.Fatalf("segment %d: %v", s, err)
		}
		// The segment path computes the P-point DFT row as a direct dot
		// product, so it differs from the full transform only by
		// floating-point reordering (relative ~1e-13 here).
		if e := signal.MaxAbsErr(seg, full[s*m:(s+1)*m]); e > 1e-10 {
			t.Errorf("segment %d differs from full transform by %.3e", s, e)
		}
	}
}

// TestFPRowExact: the F_P row of segment pursuit takes its entries from
// exactly reduced arguments, so the quarter turns are exact (ω^2 = −i at
// P = 8) and every entry is within an ulp of exp(−2πi·si/P).
func TestFPRowExact(t *testing.T) {
	const P = 8
	for s := 0; s < P; s++ {
		row := fpRow(s, P)
		for i, w := range row {
			k := s * i % P
			want := cmplx.Exp(complex(0, -2*math.Pi*float64(k)/P))
			if d := cmplx.Abs(w - want); d > 2e-16 {
				t.Errorf("s %d i %d: %v, exp gives %v", s, i, w, want)
			}
			if k%2 == 0 && (real(w) != math.Round(real(w)) || imag(w) != math.Round(imag(w))) {
				t.Errorf("s %d i %d: quarter turn %v is not exact", s, i, w)
			}
		}
	}
	if w := fpRow(1, P)[2]; w != complex(0, -1) {
		t.Errorf("ω^2 at P = 8 = %v, want exactly −i", w)
	}
}

func TestTransformSegmentErrors(t *testing.T) {
	p := Params{N: 256, P: 4, Mu: 5, Nu: 4, B: 16}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]complex128, 256)
	seg := make([]complex128, 64)
	if err := pl.TransformSegment(seg, buf, -1); err == nil {
		t.Error("expected range error for s=-1")
	}
	if err := pl.TransformSegment(seg, buf, 4); err == nil {
		t.Error("expected range error for s=P")
	}
	if err := pl.TransformSegment(seg[:10], buf, 0); err == nil {
		t.Error("expected length error")
	}
}

func TestTransformSteadyStateAllocs(t *testing.T) {
	// The allocation-regression gate: with one worker (no goroutine
	// spawning) the free-listed workspaces and FFT scratch and the
	// workspace-resident timing cells make repeated transforms exactly
	// allocation-free. A nonzero count here means a scratch buffer,
	// closure or timing cell escaped back onto the per-call path. No
	// sync.Pool is on this path, so the gate holds under -race too.
	p := Params{N: 4096, P: 8, Mu: 5, Nu: 4, B: 48, Workers: 1}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(p.N, 41)
	dst := make([]complex128, p.N)
	// Warm the pools.
	if err := pl.Transform(dst, src); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := pl.Transform(dst, src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state serial Transform allocates %.0f objects per run; want 0", allocs)
	}

	// The parallel path may allocate goroutine bookkeeping (closures,
	// wait-group frames) but must not regress to per-element or
	// per-buffer allocation: a generous fixed bound catches that.
	pp := Params{N: 4096, P: 8, Mu: 5, Nu: 4, B: 48, Workers: 4}
	plp, err := NewPlan(pp)
	if err != nil {
		t.Fatal(err)
	}
	if err := plp.Transform(dst, src); err != nil {
		t.Fatal(err)
	}
	pallocs := testing.AllocsPerRun(10, func() {
		if err := plp.Transform(dst, src); err != nil {
			t.Fatal(err)
		}
	})
	if pallocs > 32 {
		t.Errorf("steady-state parallel Transform allocates %.0f objects per run; want ≤ 32 (goroutine bookkeeping only)", pallocs)
	}
}

// TestTransformAllocsSurviveGC: a warm serial Transform allocates no
// more after two garbage collections than before them. Two GCs empty a
// sync.Pool: a pooled workspace is ≈ 270 kB rebuilt here, pooled F_M'
// scratch ≈ 10 kB. The free lists keep both. TotalAlloc is process-wide,
// and another goroutine (the runtime's, another test's) may allocate
// inside a window, so up to three cold windows are measured, two GCs
// before each, and the smallest is held to the bound: a workspace the GC
// really dropped is rebuilt in every window.
func TestTransformAllocsSurviveGC(t *testing.T) {
	p := Params{N: 4096, P: 8, Mu: 5, Nu: 4, B: 48, Workers: 1}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(p.N, 41)
	dst := make([]complex128, p.N)
	allocated := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := pl.Transform(dst, src); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated()
	warm := allocated()
	cold := uint64(math.MaxUint64)
	for w := 0; w < 3 && cold > warm; w++ {
		runtime.GC()
		runtime.GC()
		cold = min(cold, allocated())
	}
	if cold > warm {
		t.Errorf("Transform after two GCs allocates %d B in its best of 3 windows, warm %d B: the workspace did not survive", cold, warm)
	}
}

// TestNewPlanMetricsMatchAnalyze pins Plan.Metrics to window.Analyze of
// the plan's window, for a window NewPlan designed (whose metrics come
// from Design) and for one the caller gave.
func TestNewPlanMetricsMatchAnalyze(t *testing.T) {
	for _, p := range []Params{
		{N: 2048, P: 8, Mu: 5, Nu: 4, B: 40},
		{N: 2048, P: 8, Mu: 5, Nu: 4, B: 40, Win: window.TauSigma{Tau: 0.8, Sigma: 90}},
	} {
		pl, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		got, want := pl.Metrics(), window.Analyze(pl.win, p.Beta(), p.B)
		for _, v := range [][2]float64{{got.Kappa, want.Kappa}, {got.EpsAlias, want.EpsAlias}, {got.EpsTrunc, want.EpsTrunc}} {
			if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				t.Errorf("%v: Metrics() = %+v, Analyze = %+v", pl.win, got, want)
				break
			}
		}
	}
}

var planSink *Plan

// BenchmarkNewPlan times building a plan without a window (the default
// B = 72 at μ/ν = 5/4): the window lookup, Analyze and the weight and
// demodulation tables, at the serving tier's n = 4096 and the benchmark's
// N = 2²⁰.
func BenchmarkNewPlan(b *testing.B) {
	for _, n := range []int{4096, 1 << 20} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := Params{N: n, P: 8, Mu: 5, Nu: 4, B: 72}
			for i := 0; i < b.N; i++ {
				pl, err := NewPlan(p)
				if err != nil {
					b.Fatal(err)
				}
				planSink = pl
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
		})
	}
}

// complexWeights builds the unfactored weight tensor, indexed
// [(r*B+b)*P+i]: (ν/μ)·H(α)·exp(iπα) with α = num/den exactly, the tap
// b inside num, so buildWeights' (−1)^b split is not assumed.
func complexWeights(pl *Plan) []complex128 {
	p := pl.prm
	scale := float64(p.Nu) / float64(p.Mu)
	den := 2 * p.Mu * p.P
	wt := make([]complex128, p.Mu*p.B*p.P)
	for r := 0; r < p.Mu; r++ {
		for b := 0; b < p.B; b++ {
			for i := 0; i < p.P; i++ {
				num := 2*r*p.Nu*p.P + p.B*p.Mu*p.P - 2*(pl.dstart[r]+b)*p.Mu*p.P - 2*p.Mu*i
				alpha := float64(num) / float64(den)
				wt[(r*p.B+b)*p.P+i] = complex(scale*pl.win.HTime(alpha), 0) * fft.ExpIPi(num, den)
			}
		}
	}
	return wt
}

// convolveComplex is ConvolveRange with complex·complex MACs over the
// unfactored tensor wt (from complexWeights).
func convolveComplex(pl *Plan, wt, dst, src []complex128, jLo, jHi, colOff int) {
	p := pl.prm
	for j := jLo; j < jHi; j++ {
		g, r := j/p.Mu, j%p.Mu
		start := (g*p.Nu+pl.dstart[r])*p.P - colOff
		w := wt[r*p.B*p.P : (r*p.B+p.B)*p.P]
		out := dst[(j-jLo)*p.P : (j-jLo+1)*p.P]
		for i := range out {
			out[i] = 0
		}
		for b := 0; b < p.B; b++ {
			xb := src[start+b*p.P : start+(b+1)*p.P]
			wb := w[b*p.P : (b+1)*p.P]
			for i, xv := range xb {
				out[i] += wb[i] * xv
			}
		}
	}
}

// TestConvolveRangeMatchesReference pins the factorized real-tap kernel
// (the production ConvolveRange) to the complex weight tensor it factors
// within a few ulps: the two compute the same sums with different —
// equally valid — rounding.
func TestConvolveRangeMatchesReference(t *testing.T) {
	for _, p := range []Params{
		{N: 2048, P: 8, Mu: 5, Nu: 4, B: 40},
		{N: 1536, P: 4, Mu: 5, Nu: 4, B: 24},
		{N: 4096, P: 16, Mu: 9, Nu: 8, B: 32},
	} {
		pl, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		src := signal.Random(p.N, 52)
		ext := make([]complex128, p.N+pl.HaloLen())
		copy(ext, src)
		copy(ext[p.N:], src[:pl.HaloLen()])
		ref := make([]complex128, pl.MPrime()*p.P)
		got := make([]complex128, pl.MPrime()*p.P)
		convolveComplex(pl, complexWeights(pl), ref, ext, 0, pl.MPrime(), 0)
		pl.ConvolveRange(got, ext, 0, pl.MPrime(), 0)
		if e := signal.MaxAbsErr(got, ref); e > 1e-13 {
			t.Errorf("P=%d B=%d: fast kernel differs from reference by %.3e", p.P, p.B, e)
		}
		// Offset sub-ranges must agree with the corresponding full rows.
		subLo, subHi := pl.MPrime()/4, pl.MPrime()/2
		sub := make([]complex128, (subHi-subLo)*p.P)
		pl.ConvolveRange(sub, ext, subLo, subHi, 0)
		if e := signal.MaxAbsErr(sub, got[subLo*p.P:subHi*p.P]); e != 0 {
			t.Errorf("P=%d B=%d: sub-range differs by %.3e", p.P, p.B, e)
		}
	}
}
