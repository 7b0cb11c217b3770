package window

import (
	"bytes"
	"fmt"
	"math"
	"os"
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

// exhaustive is scan without the bound pruning: every candidate under the
// κ bound is scored in full. TestDesignMatchesExhaustiveScan holds the
// table and scan to it.
func (c cell) exhaustive() grid {
	bestScore := math.Inf(1)
	var best grid
	for ti := 1; ti <= 60; ti++ {
		for si := 0; si <= 80; si++ {
			g := grid{ti, si}
			w := g.window(c.b)
			k := kappaProxy(w)
			if k > c.kappaMax {
				continue
			}
			score := k * (aliasProxyExhaustive(w, c.beta) + truncProxy(w, c.b) + EpsFFT)
			if score < bestScore {
				bestScore = score
				best = g
			}
		}
	}
	return best
}

// sameDesign fails t for each of τ, σ and the metrics in which got and
// want differ in any bit.
func sameDesign(t *testing.T, name string, got, want DesignResult) {
	t.Helper()
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
			t.Errorf("%s: %s = %v, exhaustive scan %v", name, f.name, f.got, f.want)
		}
	}
}

// TestDesignMatchesExhaustiveScan holds Design to the exhaustive scan, bit
// for bit in τ, σ and every metric. Each table cell (each Fig 7 rung at
// four oversamplings under κ ≤ 1e3 and under its own κ bound) is checked
// through Design, which must answer it from the table, and through the
// pruned scan called directly. Small, odd and large tap counts and the
// arguments Design clamps are off the table and run the scan.
func TestDesignMatchesExhaustiveScan(t *testing.T) {
	type args struct {
		b          int
		beta, kmax float64
		tabled     bool
	}
	var cases []args
	for _, c := range tableCells() {
		cases = append(cases, args{c.b, c.beta, c.kappaMax, true})
	}
	for _, b := range []int{2, 3, 7, 128} {
		cases = append(cases, args{b, 0.25, 1e3, false})
	}
	cases = append(cases, args{1, 0.25, 0.5, false})
	for _, a := range cases {
		t.Run(fmt.Sprintf("B=%d/beta=%g/kmax=%g", a.b, a.beta, a.kmax), func(t *testing.T) {
			t.Parallel()
			c := newCell(a.b, a.beta, a.kmax)
			if _, ok := c.lookup(); ok != a.tabled {
				t.Fatalf("table hit = %v, want %v", ok, a.tabled)
			}
			want := c.result(c.exhaustive())
			sameDesign(t, "Design", Design(a.b, a.beta, a.kmax), want)
			if a.tabled {
				sameDesign(t, "scan", c.result(c.scan()), want)
			}
		})
	}
}

// TestDesignTableFresh holds the committed design_table.go to the output
// of "go run ./cmd/windesign -table", so the table cannot drift from the
// scan. Regenerate the file with that command after changing the scan,
// its proxies or tableCells.
func TestDesignTableFresh(t *testing.T) {
	committed, err := os.ReadFile("design_table.go")
	if err != nil {
		t.Fatal(err)
	}
	var rendered bytes.Buffer
	if err := WriteTable(&rendered); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, rendered.Bytes()) {
		t.Errorf("design_table.go differs from windesign -table; regenerate it:\n%s", rendered.String())
	}
}

var designSink DesignResult

// BenchmarkDesign times Design at β = 1/4, κ ≤ 1e3, the request
// core.NewPlan makes for a plan built without a window: table hits at the
// full-accuracy and the smallest Fig 7 tap count, and a miss (B = 64)
// that runs the search.
func BenchmarkDesign(b *testing.B) {
	for _, leg := range []struct {
		name string
		taps int
	}{{"hit/B=72", 72}, {"hit/B=26", 26}, {"miss/B=64", 64}} {
		b.Run(leg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				designSink = Design(leg.taps, 0.25, 1e3)
			}
			b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/op")
		})
	}
}
