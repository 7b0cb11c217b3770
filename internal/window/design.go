package window

import (
	"fmt"
	"math"
	"sync"
)

// DesignResult is a window chosen for a given tap budget and oversampling.
type DesignResult struct {
	Window  Window
	Metrics Metrics
	B       int     // convolution taps the design assumes
	Beta    float64 // oversampling the design assumes
}

func (d DesignResult) String() string {
	return fmt.Sprintf("%v B=%d β=%.3g κ=%.3g ε_alias=%.3g ε_trunc=%.3g (~%.1f digits)",
		d.Window, d.B, d.Beta, d.Metrics.Kappa, d.Metrics.EpsAlias,
		d.Metrics.EpsTrunc, d.Metrics.Digits())
}

// Design searches the (τ, σ) plane for the two-parameter window that
// minimizes the predicted error κ·(ε_alias + ε_trunc) for B taps at
// oversampling β, subject to κ ≤ kappaMax. This mirrors the paper's
// procedure of obtaining a (τ, σ) pair for a given B (Section 7.2).
//
// The search uses cheap closed-form proxies to rank candidates and runs
// the accurate quadrature-based Analyze only on the winner. A candidate is
// dropped once k·(a+ε_fft), for a lower bound a of its ε_alias, reaches the
// best score: ε_trunc ≥ 0 and rounding is monotone, so that bounds its
// score from below, it could not have won the strict <, and the winner is
// the exhaustive scan's bit for bit. A NaN bound drops nothing.
func Design(b int, beta, kappaMax float64) DesignResult {
	if b < 2 {
		b = 2
	}
	if kappaMax <= 1 {
		kappaMax = 1e3
	}
	bestScore := math.Inf(1)
	var best TauSigma
	// σ is bounded above by truncation: exp(-π²(B/2)²/σ) must be tiny.
	// Scan a τ grid and a log-spaced σ grid around that scale.
	sigmaHi := float64(b*b) * 2
	for ti := 1; ti <= 60; ti++ {
		tau := float64(ti) * 0.02 // 0.02 .. 1.20
		for si := 0; si <= 80; si++ {
			sigma := math.Exp(math.Log(2) + float64(si)/80*math.Log(sigmaHi/2))
			w := TauSigma{Tau: tau, Sigma: sigma}
			k := kappaProxy(w)
			bounded := func(alias float64) bool { return k*(alias+EpsFFT) >= bestScore }
			if k > kappaMax || bounded(0) {
				continue
			}
			alias, ok := aliasProxy(w, beta, bounded)
			if !ok || bounded(alias) {
				continue
			}
			score := k * (alias + truncProxy(w, b) + EpsFFT)
			if score < bestScore {
				bestScore = score
				best = w
			}
		}
	}
	return DesignResult{
		Window:  best,
		Metrics: Analyze(best, beta, b),
		B:       b,
		Beta:    beta,
	}
}

// DesignGaussian picks the one-parameter Gaussian window balancing alias
// and truncation error for B taps at oversampling β. Used by the
// window-family ablation (paper Section 8 discussion).
func DesignGaussian(b int, beta float64) DesignResult {
	bestScore := math.Inf(1)
	var best Gaussian
	for ai := 1; ai <= 400; ai++ {
		a := float64(ai) * 0.5
		w := Gaussian{A: a}
		alias, _ := aliasProxy(w, beta, nil)
		score := kappaProxy(w) * (alias + truncProxy(w, b) + EpsFFT)
		if score < bestScore {
			bestScore = score
			best = w
		}
	}
	return DesignResult{
		Window:  best,
		Metrics: Analyze(best, beta, b),
		B:       b,
		Beta:    beta,
	}
}

// kappaProxy exploits that both families peak at u=0 and decrease in |u|
// on [0, 1/2].
func kappaProxy(w Window) float64 {
	lo := math.Abs(w.HHat(0.5))
	if lo == 0 {
		return math.Inf(1)
	}
	return math.Abs(w.HHat(0)) / lo
}

// aliasProxy approximates ε_alias with coarse Simpson quadrature. It gives
// up, returning false, once a non-nil stop accepts a partial tail's ratio.
func aliasProxy(w Window, beta float64, stop func(alias float64) bool) (float64, bool) {
	inner := integrateAbs(w.HHat, -0.5, 0.5, 64)
	if inner == 0 {
		return math.Inf(1), true
	}
	edge := 0.5 + beta
	tail, ok := integrateAbsUntil(w.HHat, edge, edge+6, 256, func(part float64) bool {
		return stop != nil && stop((2*part)/inner)
	})
	return (2 * tail) / inner, ok
}

// truncProxy approximates ε_trunc with coarse quadrature.
func truncProxy(w Window, b int) float64 {
	half := float64(b) / 2
	body := integrateAbs(w.HTime, -half, half, 512)
	tail := 2 * integrateAbs(w.HTime, half, half*3+8, 512)
	if body+tail == 0 {
		return math.Inf(1)
	}
	return tail / (body + tail)
}

// Preset identifies one rung of the paper's accuracy-performance ladder
// (Fig 7): full accuracy uses B = 72 as in Section 7.2; the reduced rungs
// shrink B, trading SNR for convolution arithmetic.
type Preset struct {
	Name     string
	B        int
	KappaMax float64
}

// Presets is the accuracy ladder used by the Fig 7 reproduction, ordered
// from full accuracy downwards.
var Presets = []Preset{
	{Name: "full~290dB", B: 72, KappaMax: 1e3},
	{Name: "~270dB", B: 56, KappaMax: 1e4},
	{Name: "~250dB", B: 44, KappaMax: 1e5},
	{Name: "~230dB", B: 34, KappaMax: 1e6},
	{Name: "~200dB", B: 26, KappaMax: 1e7},
}

var (
	presetMu    sync.Mutex
	presetCache = map[string]DesignResult{}
)

// ForPreset designs (and caches) the window for a preset at oversampling β.
func ForPreset(p Preset, beta float64) DesignResult {
	key := fmt.Sprintf("%s/%g", p.Name, beta)
	presetMu.Lock()
	defer presetMu.Unlock()
	if r, ok := presetCache[key]; ok {
		return r
	}
	r := Design(p.B, beta, p.KappaMax)
	presetCache[key] = r
	return r
}
