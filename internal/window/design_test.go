package window

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestDesignResultString(t *testing.T) {
	d := Design(48, 0.25, 1e3)
	s := d.String()
	for _, frag := range []string{"tau-sigma", "B=48", "κ=", "digits"} {
		if !strings.Contains(s, frag) {
			t.Errorf("DesignResult string missing %q: %s", frag, s)
		}
	}
}

func TestDesignRespectsKappaBound(t *testing.T) {
	for _, kmax := range []float64{10, 100, 1e3, 1e5} {
		d := Design(48, 0.25, kmax)
		// The accurate Analyze κ may exceed the proxy slightly; allow 2x.
		if d.Metrics.Kappa > kmax*2 {
			t.Errorf("kmax=%g: designed kappa %.3g way over bound", kmax, d.Metrics.Kappa)
		}
	}
}

func TestDesignDegenerateArgs(t *testing.T) {
	// B below the floor and nonsensical kappaMax must still return a
	// usable window rather than panicking.
	d := Design(1, 0.25, 0.5)
	if d.Window == nil {
		t.Fatal("degenerate design returned nil window")
	}
	if d.B != 2 {
		t.Errorf("B clamped to %d, want 2", d.B)
	}
}

func TestTighterKappaCostsAccuracy(t *testing.T) {
	// At fixed B, loosening the kappa bound can only help (or tie) the
	// achievable error.
	tight := Design(40, 0.25, 10)
	loose := Design(40, 0.25, 1e6)
	if loose.Metrics.TotalError() > tight.Metrics.TotalError()*1.01 {
		t.Errorf("loose kappa error %.3g worse than tight %.3g",
			loose.Metrics.TotalError(), tight.Metrics.TotalError())
	}
}

func TestLargerBetaNeedsFewerTaps(t *testing.T) {
	// For a fixed ~12-digit target, the needed B falls as beta rises.
	taps := func(beta float64) int {
		for b := 8; b <= 120; b += 4 {
			if Design(b, beta, 1e3).Metrics.Digits() >= 12 {
				return b
			}
		}
		return 121
	}
	b14, b12 := taps(0.25), taps(1.0)
	if b12 >= b14 {
		t.Errorf("beta=1 needs %d taps, beta=1/4 needs %d; expected fewer at larger beta", b12, b14)
	}
}

func TestGaussianDesignerSane(t *testing.T) {
	d := DesignGaussian(48, 0.25)
	g, ok := d.Window.(Gaussian)
	if !ok {
		t.Fatalf("DesignGaussian returned %T", d.Window)
	}
	if g.A <= 0 {
		t.Errorf("gaussian parameter %g", g.A)
	}
	if math.IsInf(d.Metrics.TotalError(), 0) || d.Metrics.TotalError() <= 0 {
		t.Errorf("total error %g", d.Metrics.TotalError())
	}
}

func TestAllPresetsProduceValidWindows(t *testing.T) {
	for _, pr := range Presets {
		d := ForPreset(pr, 0.25)
		if d.Window == nil {
			t.Fatalf("preset %s: nil window", pr.Name)
		}
		m := d.Metrics
		if m.Kappa < 1 || math.IsNaN(m.Kappa) {
			t.Errorf("preset %s: kappa %g", pr.Name, m.Kappa)
		}
		if m.Digits() < 5 {
			t.Errorf("preset %s: only %.1f digits", pr.Name, m.Digits())
		}
	}
}

// aliasProxyExhaustive is aliasProxy without the early exit: the whole
// Simpson tail, always.
func aliasProxyExhaustive(w Window, beta float64) float64 {
	inner := integrateAbs(w.HHat, -0.5, 0.5, 64)
	edge := 0.5 + beta
	tail := 2 * integrateAbs(w.HHat, edge, edge+6, 256)
	if inner == 0 {
		return math.Inf(1)
	}
	return tail / inner
}

// designExhaustive is Design without the bound pruning: every candidate
// under the κ bound is scored in full. TestDesignMatchesExhaustiveScan
// holds Design to it.
func designExhaustive(b int, beta, kappaMax float64) DesignResult {
	if b < 2 {
		b = 2
	}
	if kappaMax <= 1 {
		kappaMax = 1e3
	}
	bestScore := math.Inf(1)
	var best TauSigma
	sigmaHi := float64(b*b) * 2
	for ti := 1; ti <= 60; ti++ {
		tau := float64(ti) * 0.02
		for si := 0; si <= 80; si++ {
			sigma := math.Exp(math.Log(2) + float64(si)/80*math.Log(sigmaHi/2))
			w := TauSigma{Tau: tau, Sigma: sigma}
			k := kappaProxy(w)
			if k > kappaMax {
				continue
			}
			score := k * (aliasProxyExhaustive(w, beta) + truncProxy(w, b) + EpsFFT)
			if score < bestScore {
				bestScore = score
				best = w
			}
		}
	}
	return DesignResult{Window: best, Metrics: Analyze(best, beta, b), B: b, Beta: beta}
}

// TestDesignMatchesExhaustiveScan holds the bound-pruned search to the
// exhaustive one, bit for bit in τ, σ and every metric: each Fig 7 rung at
// four oversamplings under κ ≤ 1e3 and under its own κ bound, small, odd
// and large tap counts, and the arguments Design clamps.
func TestDesignMatchesExhaustiveScan(t *testing.T) {
	type args struct {
		b          int
		beta, kmax float64
	}
	var cases []args
	for _, beta := range []float64{0.125, 0.25, 0.5, 1} {
		for _, p := range Presets {
			cases = append(cases, args{p.B, beta, 1e3})
			if p.KappaMax != 1e3 {
				cases = append(cases, args{p.B, beta, p.KappaMax})
			}
		}
	}
	for _, b := range []int{2, 3, 7, 128} {
		cases = append(cases, args{b, 0.25, 1e3})
	}
	cases = append(cases, args{1, 0.25, 0.5})
	for _, c := range cases {
		t.Run(fmt.Sprintf("B=%d/beta=%g/kmax=%g", c.b, c.beta, c.kmax), func(t *testing.T) {
			t.Parallel()
			got, want := Design(c.b, c.beta, c.kmax), designExhaustive(c.b, c.beta, c.kmax)
			gw, ww := got.Window.(TauSigma), want.Window.(TauSigma)
			for _, f := range []struct {
				name      string
				got, want float64
			}{
				{"tau", gw.Tau, ww.Tau},
				{"sigma", gw.Sigma, ww.Sigma},
				{"kappa", got.Metrics.Kappa, want.Metrics.Kappa},
				{"eps_alias", got.Metrics.EpsAlias, want.Metrics.EpsAlias},
				{"eps_trunc", got.Metrics.EpsTrunc, want.Metrics.EpsTrunc},
			} {
				if math.Float64bits(f.got) != math.Float64bits(f.want) {
					t.Errorf("%s = %v, exhaustive scan %v", f.name, f.got, f.want)
				}
			}
		})
	}
}

var designSink DesignResult

// BenchmarkDesign times the search core.NewPlan runs for a plan built
// without a window (β = 1/4, κ ≤ 1e3), at the full-accuracy and the
// smallest Fig 7 tap count.
func BenchmarkDesign(b *testing.B) {
	for _, taps := range []int{72, 26} {
		b.Run(fmt.Sprintf("B=%d", taps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				designSink = Design(taps, 0.25, 1e3)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
		})
	}
}
