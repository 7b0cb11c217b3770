package window

import (
	"fmt"
	"math"
)

// KaiserBessel is the Kaiser–Bessel window pair, the workhorse of the
// nonuniform-FFT literature the paper's Section 8 connects to. Here it
// is oriented with the *time* domain compactly supported:
//
//	H(t)  = I₀(b·√(1−(t/T)²)) / I₀(b)   for |t| ≤ T,   0 otherwise
//	Ĥ(u)  = (2T/I₀(b)) · sinh(√(b²−(2πTu)²)) / √(b²−(2πTu)²)
//	        (the √ turns imaginary for |u| > b/(2πT), giving sin/x decay)
//
// Because H vanishes identically beyond T, choosing T = B/2 makes the
// convolution truncation error *exactly zero* — the mirror image of the
// compact-bump window, which zeroes the aliasing instead. The tradeoff
// is a hard one: keeping κ moderate forces the shape parameter so high
// that the frequency tail only reaches ~1e-5..1e-7 at the alias edge, so
// the family tops out around 5–7 digits at β = 1/4. It is included as a
// reduced-accuracy option and a design-space illustration (it is *the*
// window of the NUFFT literature, in the mirrored orientation), not as a
// full-accuracy default.
type KaiserBessel struct {
	Shape     float64 // b: larger = faster frequency decay, worse κ
	HalfWidth float64 // T: time support half-width (set to B/2)
}

// HHat evaluates the frequency-domain closed form. All intermediates are
// scaled by e^{−b} so the sinh/I₀ ratio never overflows even for very
// large shape parameters.
func (w KaiserBessel) HHat(u float64) float64 {
	b := w.Shape
	x := 2 * math.Pi * w.HalfWidth * u
	d := b*b - x*x
	scale := 2 * w.HalfWidth / besselI0e(b) // I₀(b)·e^{−b}
	switch {
	case d > 1e-12:
		r := math.Sqrt(d)
		// sinh(r)·e^{−b} = (e^{r−b} − e^{−r−b})/2, with r ≤ b.
		se := (math.Exp(r-b) - math.Exp(-r-b)) / 2
		return scale * se / r
	case d < -1e-12:
		r := math.Sqrt(-d)
		return scale * math.Exp(-b) * math.Sin(r) / r
	default:
		return scale * math.Exp(-b)
	}
}

// HTime evaluates the compactly supported time-domain closed form,
// likewise through the scaled Bessel function.
func (w KaiserBessel) HTime(t float64) float64 {
	v := t / w.HalfWidth
	d := 1 - v*v
	if d <= 0 {
		return 0
	}
	a := w.Shape * math.Sqrt(d)
	return besselI0e(a) * math.Exp(a-w.Shape) / besselI0e(w.Shape)
}

func (w KaiserBessel) String() string {
	return fmt.Sprintf("kaiser-bessel(b=%.4g, T=%.4g)", w.Shape, w.HalfWidth)
}

// DesignKaiser picks the shape parameter for B taps at oversampling β:
// T = B/2 (zero truncation) and b chosen by scanning the predicted error
// κ·(ε_alias + ε_fft) under the κ bound.
func DesignKaiser(bTaps int, beta, kappaMax float64) DesignResult {
	halfWidth := float64(bTaps) / 2
	bestScore := math.Inf(1)
	var best KaiserBessel
	// The in-band variation is ≈ e^{b−√(b²−(πB/2)²)}; scan shapes from
	// "κ≈1" downwards to the turnover point πT.
	lo := math.Pi * halfWidth // turnover exactly at u = 1/2
	for i := 0; i <= 120; i++ {
		b := lo * (1 + float64(i)*0.05)
		w := KaiserBessel{Shape: b, HalfWidth: halfWidth}
		k := kappaProxy(w)
		if k > kappaMax {
			continue
		}
		alias, _ := aliasProxy(w, beta, nil)
		score := k * (alias + EpsFFT)
		if score < bestScore {
			bestScore = score
			best = w
		}
	}
	return DesignResult{
		Window:  best,
		Metrics: Analyze(best, beta, bTaps),
		B:       bTaps,
		Beta:    beta,
	}
}

// besselI0e is the exponentially scaled modified Bessel function
// I₀(x)·e^{−x}, via the power series at small arguments and the standard
// Abramowitz–Stegun asymptotic fit beyond (|e| < 2e-7 relative, plenty
// for window design). Scaling keeps every ratio in the window formulas
// finite for arbitrarily large shape parameters.
func besselI0e(x float64) float64 {
	x = math.Abs(x)
	if x < 3.75 {
		// Power series: Σ (x²/4)^k / (k!)², converges fast here.
		t := x * x / 4
		sum, term := 1.0, 1.0
		for k := 1; k < 40; k++ {
			term *= t / float64(k*k)
			sum += term
			if term < 1e-17*sum {
				break
			}
		}
		return sum * math.Exp(-x)
	}
	inv := 3.75 / x
	p := 0.39894228 + inv*(0.01328592+inv*(0.00225319+inv*(-0.00157565+
		inv*(0.00916281+inv*(-0.02057706+inv*(0.02635537+inv*(-0.01647633+
			inv*0.00392377)))))))
	return p / math.Sqrt(x)
}
