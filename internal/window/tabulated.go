package window

import (
	"fmt"
	"math"

	"soifft/internal/fft"
)

// Tabulated adapts an arbitrary frequency-domain window Ĥ — one with no
// closed-form time-domain partner — into a full Window: H(t) is obtained
// once by an FFT-based evaluation of the inverse Fourier integral on a
// fine grid and then interpolated cubically. This is what makes the
// compactly supported windows of paper Section 8 (ref. Bruno et al.)
// usable inside the SOI machinery, and it lets users plug in their own
// window designs.
type Tabulated struct {
	name    string
	hhat    func(float64) float64
	support float64   // Ĥ is (treated as) zero for |u| > support
	dt      float64   // time-grid spacing
	h       []float64 // H(k·dt), k = 0..len-1; H is even by symmetry
}

// tabulation parameters: uSamples controls quadrature accuracy (the
// integrand is smooth, so a few hundred points reach rounding error for
// compactly supported Ĥ); timeRes is samples per unit t for the cubic
// interpolation.
const (
	uSamples = 2048
	timeRes  = 256
)

// NewTabulated builds the time-domain table for a frequency-domain
// window. hhat must be even (real symmetric H) and negligible outside
// [−support, support]; tMax bounds the |t| range the table must cover
// (use at least B/2 + 2 for a B-tap convolution).
func NewTabulated(name string, hhat func(float64) float64, support, tMax float64) (*Tabulated, error) {
	if support <= 0 || tMax <= 0 {
		return nil, fmt.Errorf("window: support and tMax must be positive")
	}
	du := 2 * support / uSamples
	dt := 1.0 / timeRes
	// FFT length: grid covers t ∈ [0, 1/(du·1)) at spacing 1/(L·du); we
	// need spacing dt, so L = 1/(dt·du), rounded up to a power of two.
	l := 1
	for float64(l) < 1/(dt*du) {
		l <<= 1
	}
	dt = 1 / (float64(l) * du) // exact spacing for the chosen length
	if float64(l)*dt <= tMax+2 {
		return nil, fmt.Errorf("window: tMax %.1f exceeds tabulation range %.1f", tMax, float64(l)*dt)
	}
	plan, err := fft.NewPlan(l)
	if err != nil {
		return nil, err
	}
	// H(t_k) = du · Re[ e^{-i2π·support·t_k} · Σ_j Ĥ(u_j) e^{+i2πjk/L} ]
	// with u_j = −support + j·du. The positive-exponent sum is
	// conj(F(a))_k for real a.
	a := make([]complex128, l)
	for j := 0; j < uSamples; j++ {
		u := -support + float64(j)*du
		a[j] = complex(hhat(u), 0)
	}
	fa := make([]complex128, l)
	plan.Forward(fa, a)
	keep := int(tMax/dt) + 8
	if keep > l {
		keep = l
	}
	h := make([]float64, keep)
	for k := 0; k < keep; k++ {
		t := float64(k) * dt
		ang := -2 * math.Pi * support * t
		c, s := math.Cos(ang), math.Sin(ang)
		// conj(fa[k]) = (re, -im); multiply by e^{i·ang} and keep Re.
		h[k] = du * (real(fa[k])*c + imag(fa[k])*s)
	}
	return &Tabulated{name: name, hhat: hhat, support: support, dt: dt, h: h}, nil
}

// HHat evaluates the frequency-domain window (zero outside the support).
func (w *Tabulated) HHat(u float64) float64 {
	if u < -w.support || u > w.support {
		return 0
	}
	return w.hhat(u)
}

// HTime evaluates the tabulated time-domain window with Catmull-Rom
// cubic interpolation; beyond the table it returns 0.
func (w *Tabulated) HTime(t float64) float64 {
	t = math.Abs(t)
	x := t / w.dt
	i := int(x)
	if i+2 >= len(w.h) {
		return 0
	}
	f := x - float64(i)
	var p0 float64
	if i == 0 {
		p0 = w.h[1] // even symmetry: H(-dt) = H(dt)
	} else {
		p0 = w.h[i-1]
	}
	p1, p2, p3 := w.h[i], w.h[i+1], w.h[i+2]
	return p1 + 0.5*f*(p2-p0+f*(2*p0-5*p1+4*p2-p3+f*(3*(p1-p2)+p3-p0)))
}

func (w *Tabulated) String() string { return w.name }

// NewCompactBump builds the C∞ compactly supported "bump" window
//
//	Ĥ(u) = exp(1 − 1/(1 − (u/S)²)),  |u| < S;  0 otherwise,
//
// with support S = 1/2 + β chosen so that the dilated problem window
// ŵ(u) = Ĥ((u−M/2)/M) vanishes identically outside (−βM, (1+β)M). The
// aliasing error of the SOI factorization is then exactly zero (paper
// Section 8: such windows make the factorization theoretically exact);
// the price is a sub-exponentially decaying H, i.e. more taps for the
// same truncation error. tMax must cover B/2 for the intended tap count.
func NewCompactBump(beta float64, tMax float64) (*Tabulated, error) {
	if beta <= 0 {
		return nil, fmt.Errorf("window: beta must be positive")
	}
	s := 0.5 + beta
	bump := func(u float64) float64 {
		v := u / s
		d := 1 - v*v
		if d <= 1e-12 {
			return 0
		}
		return math.Exp(1 - 1/d)
	}
	return NewTabulated(fmt.Sprintf("compact-bump(S=%.3g)", s), bump, s, tMax)
}
