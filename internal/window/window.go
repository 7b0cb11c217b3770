// Package window implements the window-function machinery of the SOI FFT
// framework (paper Sections 4 and 8).
//
// A reference window is a pair (Ĥ, H) of continuous Fourier-transform
// partners: Ĥ(u) lives in the frequency domain and is positive on
// [-1/2, 1/2]; H(t) is its time-domain counterpart. The SOI factorization
// dilates and translates the reference window to the problem size. Three
// quantities govern achievable accuracy (paper Section 4):
//
//   - κ (kappa): max/min of |Ĥ| on [-1/2, 1/2] — a condition number, since
//     demodulation divides by Ĥ samples;
//   - ε_alias: the mass of |Ĥ| outside (-(1/2+β), 1/2+β) relative to the
//     mass inside [-1/2, 1/2] — frequency leakage folded in by periodization;
//   - ε_trunc: the mass of |H| outside [-B/2, B/2] — the part of the
//     convolution discarded by keeping only B taps.
//
// The overall SOI error behaves like O(κ·(ε_fft + ε_alias + ε_trunc)).
package window

import (
	"fmt"
	"math"
)

// Window is a reference window function pair. Implementations must be
// usable concurrently.
type Window interface {
	// HHat evaluates the frequency-domain reference window at u.
	HHat(u float64) float64
	// HTime evaluates the time-domain reference window at t.
	HTime(t float64) float64
	// String describes the window and its parameters.
	String() string
}

// fracTimer is a Window that can evaluate H at an exact rational
// argument, keeping precision HTime loses when it rounds its argument
// first.
type fracTimer interface {
	HTimeFrac(num, den int) float64
}

// HTimeFrac returns H(num/den) for w: through w's own HTimeFrac where it
// has one (TauSigma reduces its sinc argument exactly), otherwise HTime
// of num/den rounded once.
func HTimeFrac(w Window, num, den int) float64 {
	if f, ok := w.(fracTimer); ok {
		return f.HTimeFrac(num, den)
	}
	return w.HTime(float64(num) / float64(den))
}

// TauSigma is the paper's two-parameter reference window, Eq. (2): the
// convolution of a rectangle of width τ (a perfect bandpass filter) with
// a Gaussian exp(-σu²), normalized by 1/τ. Closed forms:
//
//	Ĥ(u) = √(π/σ)/(2τ) · [erf(√σ(u+τ/2)) − erf(√σ(u−τ/2))]
//	H(t) = sinc(τt) · √(π/σ) · exp(−(πt)²/σ),  sinc(z) = sin(πz)/(πz)
type TauSigma struct {
	Tau   float64
	Sigma float64
}

// HHat returns the frequency-domain value at u.
func (w TauSigma) HHat(u float64) float64 {
	rs := math.Sqrt(w.Sigma)
	return math.Sqrt(math.Pi/w.Sigma) / (2 * w.Tau) *
		(math.Erf(rs*(u+w.Tau/2)) - math.Erf(rs*(u-w.Tau/2)))
}

// HTime returns the time-domain value at t.
func (w TauSigma) HTime(t float64) float64 {
	return sinc(w.Tau*t) * math.Sqrt(math.Pi/w.Sigma) *
		math.Exp(-(math.Pi*t)*(math.Pi*t)/w.Sigma)
}

// HTimeFrac returns H(num/den) with the sinc argument reduced exactly:
// π·τ·t reaches ≈ 100 rad at the tap counts SOI uses, so HTime's float
// product τ·t puts ≈ 1e-14 of absolute error on the sine. Here τ·num is
// split into the exact double-double hi + lo, hi is reduced modulo 2·den
// (math.Mod is exact) into [−den, den], and π multiplies the reduced
// fraction only. The sinc denominator and the Gaussian need relative
// accuracy alone and take t = num/den rounded once. den must be
// positive and |num| below 2⁵³.
func (w TauSigma) HTimeFrac(num, den int) float64 {
	if num == 0 {
		return w.HTime(0)
	}
	n, d := float64(num), float64(den)
	hi := w.Tau * n
	lo := math.FMA(w.Tau, n, -hi)
	hi = math.Mod(hi, 2*d)
	if hi > d {
		hi -= 2 * d
	} else if hi < -d {
		hi += 2 * d
	}
	t := n / d
	return math.Sin(math.Pi*((hi+lo)/d)) / (math.Pi * (w.Tau * t)) *
		math.Sqrt(math.Pi/w.Sigma) * math.Exp(-(math.Pi*t)*(math.Pi*t)/w.Sigma)
}

func (w TauSigma) String() string {
	return fmt.Sprintf("tau-sigma(τ=%.4g, σ=%.4g)", w.Tau, w.Sigma)
}

// Gaussian is the one-parameter frequency-domain Gaussian window
// Ĥ(u) = exp(−a·u²), H(t) = √(π/a)·exp(−(πt)²/a). The paper notes this
// family caps accuracy near 10 digits at β = 1/4; it is provided for the
// window-family ablation.
type Gaussian struct {
	A float64
}

// HHat returns the frequency-domain value at u.
func (w Gaussian) HHat(u float64) float64 { return math.Exp(-w.A * u * u) }

// HTime returns the time-domain value at t.
func (w Gaussian) HTime(t float64) float64 {
	return math.Sqrt(math.Pi/w.A) * math.Exp(-(math.Pi*t)*(math.Pi*t)/w.A)
}

func (w Gaussian) String() string { return fmt.Sprintf("gaussian(a=%.4g)", w.A) }

func sinc(z float64) float64 {
	if math.Abs(z) < 1e-8 {
		return 1 - (math.Pi*z)*(math.Pi*z)/6
	}
	return math.Sin(math.Pi*z) / (math.Pi * z)
}

// Metrics reports the accuracy-governing quantities of a window at a
// given oversampling β and tap count B.
type Metrics struct {
	Kappa    float64 // conditioning of demodulation
	EpsAlias float64 // relative aliasing mass
	EpsTrunc float64 // relative truncation mass
}

// EpsFFT models the ε_fft rounding term of the underlying double-precision
// FFT in the paper's error characterization κ·(ε_fft + ε_alias + ε_trunc).
const EpsFFT = 1.1e-16

// TotalError is the predicted error scale κ·(ε_fft + ε_alias + ε_trunc)
// from the paper's characterization. Including ε_fft keeps the estimate
// honest when the window terms underflow: demodulation by a badly
// conditioned window still amplifies FFT rounding error.
func (m Metrics) TotalError() float64 {
	return m.Kappa * (m.EpsAlias + m.EpsTrunc + EpsFFT)
}

// Digits converts TotalError to decimal digits of accuracy.
func (m Metrics) Digits() float64 { return -math.Log10(m.TotalError()) }

// Analyze measures κ, ε_alias and ε_trunc for a window at oversampling β
// with B convolution taps.
func Analyze(w Window, beta float64, b int) Metrics {
	var m Metrics
	m.Kappa = kappa(w)
	m.EpsAlias = epsAlias(w, beta)
	m.EpsTrunc = epsTrunc(w, b)
	return m
}

// kappa is max|Ĥ|/min|Ĥ| over [-1/2, 1/2], sampled on a fine grid.
func kappa(w Window) float64 {
	const steps = 2048
	lo, hi := math.Inf(1), 0.0
	for i := 0; i <= steps; i++ {
		u := -0.5 + float64(i)/steps
		v := math.Abs(w.HHat(u))
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo == 0 {
		return math.Inf(1)
	}
	return hi / lo
}

// epsAlias integrates |Ĥ| outside (−(1/2+β), 1/2+β) relative to the mass
// inside [−1/2, 1/2]. The outer integral is truncated where the window
// has decayed below 1e-22 of its peak.
func epsAlias(w Window, beta float64) float64 {
	inner := integrateAbs(w.HHat, -0.5, 0.5, 4096)
	edge := 0.5 + beta
	peak := math.Abs(w.HHat(0))
	// Find a cutoff where the tail is negligible.
	cut := edge
	for cut < edge+100 && math.Abs(w.HHat(cut)) > 1e-22*peak {
		cut += 0.25
	}
	tail := integrateAbs(w.HHat, edge, cut, 8192)
	tail += integrateAbs(w.HHat, -cut, -edge, 8192)
	if inner == 0 {
		return math.Inf(1)
	}
	return tail / inner
}

// epsTrunc integrates |H| outside [−B/2, B/2] relative to the total mass.
func epsTrunc(w Window, b int) float64 {
	half := float64(b) / 2
	total := integrateAbs(w.HTime, -half, half, 16384)
	peak := math.Abs(w.HTime(0))
	cut := half
	for cut < half+1000 && math.Abs(w.HTime(cut)) > 1e-22*peak {
		cut += 1
	}
	tail := 2 * integrateAbs(w.HTime, half, cut, 16384)
	total += tail
	if total == 0 {
		return math.Inf(1)
	}
	return tail / total
}

// integrateAbs computes ∫|f| over [a,b] by the composite Simpson rule
// with n panels (n is rounded up to even).
func integrateAbs(f func(float64) float64, a, b float64, n int) float64 {
	v, _ := integrateAbsUntil(f, a, b, n, nil)
	return v
}

// integrateAbsUntil is integrateAbs that gives up, returning false, once a
// non-nil stop accepts the partial integral, offered every 4 panels. The
// terms are non-negative and summed in a fixed order, so each partial
// integral is a lower bound of integrateAbs's result.
func integrateAbsUntil(f func(float64) float64, a, b float64, n int, stop func(float64) bool) (float64, bool) {
	if b <= a {
		return 0, true
	}
	if n%2 == 1 {
		n++
	}
	h := (b - a) / float64(n)
	sum := math.Abs(f(a)) + math.Abs(f(b))
	for i := 1; i < n; i++ {
		x := a + float64(i)*h
		if i%2 == 1 {
			sum += 4 * math.Abs(f(x))
		} else {
			sum += 2 * math.Abs(f(x))
		}
		if stop != nil && i%4 == 0 && stop(sum*h/3) {
			return 0, false
		}
	}
	return sum * h / 3, true
}
