package window_test

import (
	"math"
	"testing"

	"soifft"
	"soifft/internal/core"
	"soifft/internal/window"
)

// tiers are the (μ, ν) oversamplings the table covers: β = 1/8, 1/4, 1/2, 1.
var tiers = [][2]int{{9, 8}, {5, 4}, {3, 2}, {2, 1}}

// TestLibraryDefaultsAreTabled: every window the library designs by
// default is a table hit, not a search. core.NewPlan asks for
// (B, μ/ν − 1, 1e3) when a plan has no window; soifft.NewPlan's defaults
// are checked at the serving and the benchmark sizes. An accuracy preset
// asks ForPreset for its rung's (B, κ bound) at every tier.
func TestLibraryDefaultsAreTabled(t *testing.T) {
	for _, n := range []int{4096, 16384, 1 << 20} {
		key := soifft.KeyOf(n)
		p := core.Params{N: n, P: key.Segments, Mu: key.Mu, Nu: key.Nu, B: key.Taps}
		if !window.Tabled(p.B, p.Beta(), 1e3) {
			t.Errorf("n=%d: core.NewPlan's default (B=%d, β=%g, κ≤1e3) is not in the table", n, p.B, p.Beta())
		}
	}
	for a := soifft.AccuracyFull; a <= soifft.Accuracy200dB; a++ {
		var rung window.Preset
		for _, p := range window.Presets {
			if p.Name == a.String() {
				rung = p
			}
		}
		for _, mn := range tiers {
			key := soifft.KeyOf(1<<20, soifft.WithAccuracy(a), soifft.WithOversampling(mn[0], mn[1]))
			beta := core.Params{Mu: key.Mu, Nu: key.Nu}.Beta()
			if key.Taps != rung.B || !window.Tabled(key.Taps, beta, rung.KappaMax) {
				t.Errorf("%v at μ/ν=%d/%d: (B=%d, β=%g, κ≤%g) is not in the table", a, mn[0], mn[1], key.Taps, beta, rung.KappaMax)
			}
		}
	}
}

// TestNewPlanWindowIsScanWinner: a plan built without a window at the
// benchmark's shape (N = 2²⁰, P = 8, μ/ν = 5/4, B = 72) carries the
// search's window and metrics bit for bit, though it no longer runs the
// search.
func TestNewPlanWindowIsScanWinner(t *testing.T) {
	p := core.Params{N: 1 << 20, P: 8, Mu: 5, Nu: 4, B: 72}
	pl, err := core.NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	want := window.Scan(p.B, p.Beta(), 1e3)
	gw, ww := pl.Params().Win.(window.TauSigma), want.Window.(window.TauSigma)
	gm, wm := pl.Metrics(), want.Metrics
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"tau", gw.Tau, ww.Tau},
		{"sigma", gw.Sigma, ww.Sigma},
		{"kappa", gm.Kappa, wm.Kappa},
		{"eps_alias", gm.EpsAlias, wm.EpsAlias},
		{"eps_trunc", gm.EpsTrunc, wm.EpsTrunc},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s = %v, scan %v", f.name, f.got, f.want)
		}
	}
}
