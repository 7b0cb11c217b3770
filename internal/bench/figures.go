package bench

import (
	"fmt"
	"math"
	"time"

	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/netsim"
	"soifft/internal/perfmodel"
	"soifft/internal/signal"
	"soifft/internal/window"
)

// Config parameterizes the paper-scale experiments, which are priced at
// PaperNodeRates.
type Config struct {
	PointsPerNode int64 // weak-scaling load (paper: 2^28)
	Beta          float64
	B             int   // full-accuracy taps (paper: 72)
	Nodes         []int // node sweep for Figs 5/6/8
}

// DefaultConfig targets the paper's scale (2^28 points/node) with the
// paper's node compute rates, so the modeled figures reproduce the
// published shapes.
func DefaultConfig() Config {
	return Config{
		PointsPerNode: 1 << 28,
		Beta:          0.25,
		B:             72,
		Nodes:         []int{1, 2, 4, 8, 16, 32, 64},
	}
}

// gflops converts a modeled run time into the paper's reporting metric.
func gflops(pointsPerNode int64, n int, t time.Duration) float64 {
	if t <= 0 {
		return math.Inf(1)
	}
	total := float64(pointsPerNode) * float64(n)
	return 5 * total * math.Log2(total) / t.Seconds() / 1e9
}

// libraryTimes models the per-node-count execution times of SOI and the
// three comparator classes on a fabric.
func libraryTimes(cfg Config, fabric netsim.Fabric, n int) (soi, sixstep, slowLocal, binex time.Duration) {
	m := PaperNodeRates().Model(fabric, cfg.PointsPerNode, cfg.Beta, cfg.B)
	soi = m.TSOI(n)
	sixstep = m.TStandard(n)
	// FFTE-class: same triple-all-to-all structure, ~20% slower local
	// kernels (constant-factor compute difference only).
	slowLocal = time.Duration(1.2*float64(m.Tfft(n))) + 3*m.Tmpi(n)
	// Binary-exchange class: log2(n) full-block pairwise exchanges plus a
	// final reorder all-to-all.
	binex = m.Tfft(n)
	bytes := cfg.PointsPerNode * 16
	stages := int(math.Round(math.Log2(float64(n))))
	for s := 0; s < stages; s++ {
		binex += fabric.P2PTime(bytes)
	}
	if n > 1 {
		binex += m.Tmpi(n)
	}
	return soi, sixstep, slowLocal, binex
}

// weakScalingTable renders one Fig 5/6/8-style table for a fabric.
func weakScalingTable(cfg Config, fabric netsim.Fabric, title string, includeAll bool) *Table {
	t := &Table{
		Title: title,
		Header: []string{"nodes", "SOI GF", "3xA2A GF", "slow-local GF",
			"binexch GF", "speedup", "comm share"},
	}
	if !includeAll {
		t.Header = []string{"nodes", "SOI GF", "3xA2A GF", "speedup", "comm share"}
	}
	m := PaperNodeRates().Model(fabric, cfg.PointsPerNode, cfg.Beta, cfg.B)
	for _, n := range cfg.Nodes {
		soi, six, slow, bx := libraryTimes(cfg, fabric, n)
		bestNonSOI := six
		if includeAll {
			if slow < bestNonSOI {
				bestNonSOI = slow
			}
			if bx < bestNonSOI {
				bestNonSOI = bx
			}
		}
		commShare := float64(3*m.Tmpi(n)) / float64(six)
		row := []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.1f", gflops(cfg.PointsPerNode, n, soi)),
			fmt.Sprintf("%.1f", gflops(cfg.PointsPerNode, n, six)),
		}
		if includeAll {
			row = append(row,
				fmt.Sprintf("%.1f", gflops(cfg.PointsPerNode, n, slow)),
				fmt.Sprintf("%.1f", gflops(cfg.PointsPerNode, n, bx)))
		}
		row = append(row,
			fmt.Sprintf("%.2fx", float64(bestNonSOI)/float64(soi)),
			fmt.Sprintf("%.0f%%", 100*commShare))
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("weak scaling, %d complex points/node; paper-node compute rates (Table 1 + Section 7.4 efficiencies); wire times from the %s model", cfg.PointsPerNode, fabric.Name()),
		"speedup = best non-SOI time / SOI time; comm share = 3·Tmpi/T3xA2A")
	return t
}

// Fig5 reproduces the Endeavor fat-tree comparison: SOI vs the triple
// all-to-all library class (MKL/FFTW/FFTE stand-ins) plus speedup.
func Fig5(cfg Config) *Table {
	return weakScalingTable(cfg, netsim.Endeavor(),
		"Fig 5: weak scaling on Endeavor (fat-tree InfiniBand)", true)
}

// Fig6 reproduces the Gordon torus comparison (paper: SOI vs MKL only),
// where bandwidth tightens beyond 32 nodes.
func Fig6(cfg Config) *Table {
	return weakScalingTable(cfg, netsim.Gordon(),
		"Fig 6: weak scaling on Gordon (3-D torus InfiniBand)", false)
}

// Fig8 reproduces the 10GbE experiment: communication-dominated, so the
// speedup approaches 3/(1+β) = 2.4.
func Fig8(cfg Config) *Table {
	t := weakScalingTable(cfg, netsim.TenGigE(),
		"Fig 8: weak scaling on Endeavor with 10GbE (communication-bound)", false)
	t.Notes = append(t.Notes,
		fmt.Sprintf("theory: speedup -> 3/(1+beta) = %.2f when communication dominates (paper observed 2.3-2.4)", 3/(1+cfg.Beta)))
	return t
}

// Fig7 reproduces the accuracy-performance tradeoff on 64-node Gordon:
// each rung of the accuracy ladder shrinks the convolution taps B,
// trading SNR for speed. SNR is measured by real transforms on this
// machine; run times are modeled at paper scale.
func Fig7(cfg Config) (*Table, error) {
	const nReal = 8192
	t := &Table{
		Title: "Fig 7: accuracy-performance tradeoff (64-node Gordon model)",
		Header: []string{"setting", "B", "kappa", "pred digits", "measured SNR dB",
			"GFLOPS", "speedup vs 3xA2A"},
	}
	fabric := netsim.Gordon()
	src := signal.Random(nReal, 77)
	ref := make([]complex128, nReal)
	plan, err := fft.CachedPlan(nReal)
	if err != nil {
		return nil, err
	}
	plan.Forward(ref, src)

	const n64 = 64
	mFull := PaperNodeRates().Model(fabric, cfg.PointsPerNode, cfg.Beta, cfg.B)
	tStd := mFull.TStandard(n64)
	for _, pr := range window.Presets {
		d := window.ForPreset(pr, cfg.Beta)
		p := core.Params{N: nReal, P: 8, Mu: 5, Nu: 4, B: pr.B, Win: d.Window}
		cp, err := core.NewPlan(p)
		if err != nil {
			return nil, err
		}
		got := make([]complex128, nReal)
		if err := cp.Transform(got, src); err != nil {
			return nil, err
		}
		snr := signal.SNRdB(got, ref)
		m := PaperNodeRates().Model(fabric, cfg.PointsPerNode, cfg.Beta, pr.B)
		tsoi := m.TSOI(n64)
		t.AddRow(
			pr.Name,
			fmt.Sprintf("%d", pr.B),
			fmt.Sprintf("%.1f", d.Metrics.Kappa),
			fmt.Sprintf("%.1f", d.Metrics.Digits()),
			fmt.Sprintf("%.0f", snr),
			fmt.Sprintf("%.1f", gflops(cfg.PointsPerNode, n64, tsoi)),
			fmt.Sprintf("%.2fx", float64(tStd)/float64(tsoi)),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("SNR measured on real %d-point transforms; times modeled at %d points/node on 64 nodes", nReal, cfg.PointsPerNode),
		"paper: full accuracy ~290 dB; at ~200 dB (10 digits) SOI exceeds 2x over MKL")
	return t, nil
}

// Fig9 reproduces the speedup projection on a hypothetical 3-D torus up
// to Jaguar scale, with the convolution-efficiency band c in [0.75, 1.25].
func Fig9(cfg Config) *Table {
	t := &Table{
		Title:  "Fig 9: speedup projection on a hypothetical 3-D torus (n = 16k^3)",
		Header: []string{"k", "nodes", "speedup c=0.75", "c=1.00", "c=1.25"},
	}
	m := PaperNodeRates().Model(netsim.Gordon(), cfg.PointsPerNode, cfg.Beta, cfg.B)
	pts := m.Projection(perfmodel.TorusNodes(2, 10), []float64{0.75, 1.0, 1.25})
	for i, pt := range pts {
		t.AddRow(
			fmt.Sprintf("%d", i+2),
			fmt.Sprintf("%d", pt.Nodes),
			fmt.Sprintf("%.2f", pt.Speedups[0.75]),
			fmt.Sprintf("%.2f", pt.Speedups[1.0]),
			fmt.Sprintf("%.2f", pt.Speedups[1.25]),
		)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("asymptote 3/(1+beta) = %.2f; paper projects ~2x at ~16K nodes (Jaguar scale)", 3/(1+cfg.Beta)))
	return t
}

// Table1 prints the evaluation platforms (paper Table 1).
func Table1() *Table {
	t := &Table{
		Title:  "Table 1: system configuration (modeled)",
		Header: []string{"system", "node", "fabric"},
	}
	for _, s := range netsim.Systems() {
		t.AddRow(s.Name,
			fmt.Sprintf("%dx%d cores @ %.2f GHz, %.0f DP GFLOPS", s.Sockets, s.CoresPer, s.ClockGHz, s.NodeGFLOPS),
			s.Fabric.Name())
	}
	t.Notes = append(t.Notes, "node parameters follow Table 1 (Xeon E5-2670); fabrics are the timing models in internal/netsim")
	return t
}

// SNRTable reproduces the Section 7.2 accuracy claim: full-accuracy SOI
// sits ~20 dB (one digit) below a conventional FFT.
func SNRTable(cfg Config) (*Table, error) {
	t := &Table{
		Title:  "Section 7.2: signal-to-noise ratio of SOI vs conventional FFT",
		Header: []string{"N", "conventional FFT SNR dB", "SOI(full) SNR dB", "gap dB"},
	}
	for _, n := range []int{1024, 2048, 4096} {
		src := signal.Random(n, int64(n))
		exact := make([]complex128, n)
		fft.Direct(exact, src)

		plan, err := fft.CachedPlan(n)
		if err != nil {
			return nil, err
		}
		conv := make([]complex128, n)
		plan.Forward(conv, src)
		snrFFT := signal.SNRdB(conv, exact)

		p := core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: cfg.B}
		cp, err := core.NewPlan(p)
		if err != nil {
			return nil, err
		}
		got := make([]complex128, n)
		if err := cp.Transform(got, src); err != nil {
			return nil, err
		}
		snrSOI := signal.SNRdB(got, exact)
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", snrFFT),
			fmt.Sprintf("%.0f", snrSOI),
			fmt.Sprintf("%.0f", snrFFT-snrSOI),
		)
	}
	t.Notes = append(t.Notes, "reference: O(N^2) direct DFT with compensated sums (fft.Direct); paper reports ~310 dB (MKL) vs ~290 dB (SOI)")
	return t, nil
}
