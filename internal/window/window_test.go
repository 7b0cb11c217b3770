package window

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestTauSigmaClosedFormMatchesQuadrature(t *testing.T) {
	// Ĥ must equal (1/τ)∫ exp(-σ(u-t)²) dt over [-τ/2, τ/2].
	w := TauSigma{Tau: 0.8, Sigma: 120}
	for _, u := range []float64{0, 0.1, -0.3, 0.5, 0.75, 1.0} {
		got := w.HHat(u)
		want := integrateAbs(func(tt float64) float64 {
			return math.Exp(-w.Sigma * (u - tt) * (u - tt))
		}, -w.Tau/2, w.Tau/2, 4096) / w.Tau
		if math.Abs(got-want) > 1e-10*math.Max(1, math.Abs(want)) {
			t.Errorf("HHat(%g) = %g, quadrature %g", u, got, want)
		}
	}
}

// TestFourierPairConsistency verifies that H(t) really is the inverse
// Fourier transform of Ĥ(u): H(t) ≈ ∫ Ĥ(u) exp(i2πut) du (real part;
// the imaginary part vanishes by symmetry).
func TestFourierPairConsistency(t *testing.T) {
	for _, w := range []Window{
		TauSigma{Tau: 0.7, Sigma: 60},
		TauSigma{Tau: 1.0, Sigma: 200},
		Gaussian{A: 40},
	} {
		for _, tt := range []float64{0, 0.3, 1.5, 4.0} {
			// Numeric inverse transform on a wide grid.
			const lim, n = 8.0, 20000
			h := 2 * lim / n
			sum := 0.0
			for i := 0; i <= n; i++ {
				u := -lim + float64(i)*h
				wgt := 1.0
				if i == 0 || i == n {
					wgt = 0.5
				}
				sum += wgt * w.HHat(u) * math.Cos(2*math.Pi*u*tt)
			}
			got := sum * h
			want := w.HTime(tt)
			if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
				t.Errorf("%v: H(%g) = %g, numeric inverse FT %g", w, tt, want, got)
			}
		}
	}
}

func TestSincNearZero(t *testing.T) {
	if got := sinc(0); got != 1 {
		t.Errorf("sinc(0) = %g", got)
	}
	// Continuity across the series/ratio switchover.
	a, b := sinc(1e-8*0.999), sinc(1e-8*1.001)
	if math.Abs(a-b) > 1e-12 {
		t.Errorf("sinc discontinuous near 0: %g vs %g", a, b)
	}
}

func TestAnalyzeFullAccuracyWindow(t *testing.T) {
	d := Design(72, 0.25, 1e3)
	m := d.Metrics
	if m.Kappa > 1e3 || m.Kappa < 1 {
		t.Errorf("kappa = %g, want in [1, 1e3]", m.Kappa)
	}
	// Paper: full accuracy reaches ~14.5 digits; require at least 13 from
	// the window itself.
	if m.Digits() < 13 {
		t.Errorf("full-accuracy design only reaches %.2f digits (%v)", m.Digits(), d)
	}
}

func TestDesignMonotoneInB(t *testing.T) {
	// More taps must never predict (much) worse accuracy.
	prev := math.Inf(1)
	for _, b := range []int{16, 24, 34, 44, 56, 72} {
		d := Design(b, 0.25, 1e6)
		e := d.Metrics.TotalError()
		if e > prev*10 {
			t.Errorf("B=%d total error %.3g much worse than smaller B (%.3g)", b, e, prev)
		}
		if e < prev {
			prev = e
		}
	}
}

func TestGaussianCapAtQuarterOversampling(t *testing.T) {
	// Paper Section 8: a pure Gaussian is limited to ~10 digits at β=1/4,
	// regardless of B. Verify the designer cannot beat ~11 digits.
	d := DesignGaussian(100, 0.25)
	if d.Metrics.Digits() > 12 {
		t.Errorf("gaussian window reached %.1f digits at β=1/4; paper says ~10 max", d.Metrics.Digits())
	}
	// And the tau-sigma family must beat it decisively at the same B.
	ts := Design(72, 0.25, 1e3)
	if ts.Metrics.Digits() < d.Metrics.Digits()+2 {
		t.Errorf("tau-sigma (%.1f digits) should beat gaussian (%.1f digits)",
			ts.Metrics.Digits(), d.Metrics.Digits())
	}
}

func TestGaussianFullAccuracyNeedsMoreOversampling(t *testing.T) {
	// Paper: β = 1 recovers full accuracy for the Gaussian family.
	d := DesignGaussian(72, 1.0)
	if d.Metrics.Digits() < 13 {
		t.Errorf("gaussian at β=1 reaches only %.1f digits; paper says full accuracy", d.Metrics.Digits())
	}
}

func TestPresetLadderIsOrdered(t *testing.T) {
	prevDigits := math.Inf(1)
	for _, p := range Presets {
		d := ForPreset(p, 0.25)
		dig := d.Metrics.Digits()
		if dig > prevDigits+0.5 {
			t.Errorf("preset %s (%.1f digits) out of order vs previous (%.1f)", p.Name, dig, prevDigits)
		}
		prevDigits = dig
	}
}

func TestForPresetCaches(t *testing.T) {
	a := ForPreset(Presets[0], 0.25)
	b := ForPreset(Presets[0], 0.25)
	if a.Window != b.Window {
		t.Error("ForPreset did not cache")
	}
}

func TestMetricsAccessors(t *testing.T) {
	m := Metrics{Kappa: 10, EpsAlias: 1e-16, EpsTrunc: 3e-16}
	want := 10 * (1e-16 + 3e-16 + EpsFFT)
	if got := m.TotalError(); math.Abs(got-want) > 1e-20 {
		t.Errorf("TotalError = %g, want %g", got, want)
	}
	if d := m.Digits(); math.Abs(d-(-math.Log10(want))) > 1e-12 {
		t.Errorf("Digits = %g", d)
	}
}

func TestIntegrateAbsBasics(t *testing.T) {
	// ∫_0^1 x dx = 1/2
	got := integrateAbs(func(x float64) float64 { return x }, 0, 1, 100)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("integrate x over [0,1] = %g", got)
	}
	// Degenerate interval.
	if v := integrateAbs(math.Sin, 2, 2, 10); v != 0 {
		t.Errorf("empty interval integral = %g", v)
	}
	// Odd panel count is rounded up, not broken.
	a := integrateAbs(math.Cos, 0, 1, 101)
	b := integrateAbs(math.Cos, 0, 1, 102)
	if math.Abs(a-b) > 1e-9 {
		t.Errorf("odd/even panel mismatch: %g vs %g", a, b)
	}
}

func TestPropKappaAtLeastOne(t *testing.T) {
	f := func(ti, si uint8) bool {
		w := TauSigma{Tau: 0.05 + float64(ti%120)*0.01, Sigma: 2 + float64(si)*10}
		k := kappa(w)
		return k >= 1 || math.IsInf(k, 1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropMoreTapsLessTruncation(t *testing.T) {
	f := func(seed uint8) bool {
		w := TauSigma{Tau: 0.5 + float64(seed%40)*0.01, Sigma: 50 + float64(seed)*3}
		return epsTrunc(w, 48) <= epsTrunc(w, 24)*1.0000001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// ratReducedHTime returns H(num/den) for w with τ·num/den reduced to
// [−1/2, 1/2] in exact rational arithmetic before the one float64 sine.
func ratReducedHTime(w TauSigma, num, den int64) float64 {
	x := new(big.Rat).SetFloat64(w.Tau)
	x.Mul(x, big.NewRat(num, den))
	h := new(big.Rat).Add(new(big.Rat).Quo(x, big.NewRat(2, 1)), big.NewRat(1, 2))
	k := new(big.Int).Div(h.Num(), h.Denom()) // round(x/2): x − 2k ∈ [−1, 1]
	x.Sub(x, new(big.Rat).SetInt(k.Lsh(k, 1)))
	if half := big.NewRat(1, 2); x.Cmp(half) > 0 { // sin(π·x) = sin(π·(±1 − x))
		x.Sub(big.NewRat(1, 1), x)
	} else if x.Cmp(half.Neg(half)) < 0 {
		x.Sub(big.NewRat(-1, 1), x)
	}
	xf, _ := x.Float64()
	t := float64(num) / float64(den)
	return math.Sin(math.Pi*xf) / (math.Pi * (w.Tau * t)) *
		math.Sqrt(math.Pi/w.Sigma) * math.Exp(-(math.Pi*t)*(math.Pi*t)/w.Sigma)
}

// TestHTimeFracExact pins TauSigma.HTimeFrac to an exactly reduced
// reference, for negative num, num a multiple of den and |num| up to 2⁴⁰.
// The unit is ε times the sinc's envelope H(0)·exp(−(πt)²/σ)/max(1, |πτt|):
// rounding τ·num/den before the sine costs ≈ |πτt|/2 of them, which
// reaches ≈ 50 on the window's support. Where |τ·t| < 1, HTime's own
// argument rounding is small, and the two must agree to 4 ulps of the
// value.
func TestHTimeFracExact(t *testing.T) {
	const eps = 0x1p-52
	worst := 0.0
	for _, w := range []TauSigma{{Tau: 0.8, Sigma: 90}, Design(72, 0.25, 1e3).Window.(TauSigma), {Tau: 0.75, Sigma: 2000}} {
		h0 := w.HTime(0)
		if got := w.HTimeFrac(0, 7); got != h0 {
			t.Errorf("%v: HTimeFrac(0, 7) = %g, want H(0) = %g", w, got, h0)
		}
		check := func(num, den int64) {
			got := w.HTimeFrac(int(num), int(den))
			if neg := w.HTimeFrac(int(-num), int(den)); neg != got {
				t.Errorf("%v: H(−%d/%d) = %g, H(%d/%d) = %g: not even", w, num, den, neg, num, den, got)
			}
			want := ratReducedHTime(w, num, den)
			tt := float64(num) / float64(den)
			env := h0 * math.Exp(-(math.Pi*tt)*(math.Pi*tt)/w.Sigma) / math.Max(1, math.Abs(math.Pi*w.Tau*tt))
			if e := math.Abs(got-want) / (env * eps); e > 4 || env == 0 {
				t.Errorf("%v: HTimeFrac(%d, %d) = %.17g, want %.17g (%.2f ε·envelope)", w, num, den, got, want, e)
			} else {
				worst = math.Max(worst, e)
			}
		}
		for _, den := range []int64{1, 3, 80, 576, 1 << 20, 1<<37 + 5} {
			for k := int64(1); k <= 40; k++ {
				check(k*den, den) // a multiple of den: t = k
				check(k*den*7/5+1, den)
			}
		}
		// |num| up to 2⁴⁰ with den keeping t inside the window's support.
		for num := int64(1) << 40; num > 1<<30; num = num*7/8 - 3 {
			check(num, 1<<36)
			check(-num, 1<<36+1)
		}
		for num := 1; num < 1000; num += 7 {
			tt := float64(num) / 997
			if math.Abs(w.Tau*tt) >= 1 {
				break
			}
			got, want := w.HTimeFrac(num, 997), w.HTime(tt)
			if e := math.Abs(got-want) / (math.Abs(want) * eps); e > 4 {
				t.Errorf("%v: HTimeFrac(%d, 997) = %.17g, HTime = %.17g (%.2f ulps)", w, num, got, want, e)
			}
		}
	}
	t.Logf("worst deviation %.2f ε·envelope", worst)
}

// TestHTimeFracDispatch: the package function reduces exactly where the
// window can and rounds num/den once where it cannot.
func TestHTimeFracDispatch(t *testing.T) {
	ts := TauSigma{Tau: 0.8, Sigma: 90}
	if got, want := HTimeFrac(ts, 12345, 576), ts.HTimeFrac(12345, 576); got != want {
		t.Errorf("HTimeFrac(τσ) = %g, want the method's %g", got, want)
	}
	g := Gaussian{A: 40}
	if got, want := HTimeFrac(g, 12345, 576), g.HTime(12345.0/576); got != want {
		t.Errorf("HTimeFrac(gaussian) = %g, want HTime(num/den) = %g", got, want)
	}
}
