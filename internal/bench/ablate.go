package bench

import (
	"fmt"
	"time"

	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/netsim"
	"soifft/internal/signal"
	"soifft/internal/window"
)

// AblateBeta sweeps the oversampling rate: larger β eases the window
// design (smaller B for the same accuracy) but inflates both the FFT
// work and the all-to-all volume. The paper calls β a key design
// parameter and settles on 1/4.
func AblateBeta(cfg Config) *Table {
	t := &Table{
		Title: "Ablation: oversampling rate beta",
		Header: []string{"beta", "mu/nu", "B for ~13 digits", "asymptote 3/(1+b)",
			"speedup @64 Gordon", "speedup @64 10GbE"},
	}
	type rat struct{ mu, nu int }
	for _, r := range []rat{{9, 8}, {5, 4}, {3, 2}, {2, 1}} {
		beta := float64(r.mu)/float64(r.nu) - 1
		b := minTapsForDigits(beta, 13)
		mG := cfg.Cal.Model(netsim.Gordon(), cfg.PointsPerNode, beta, b)
		mE := cfg.Cal.Model(netsim.TenGigE(), cfg.PointsPerNode, beta, b)
		t.AddRow(
			fmt.Sprintf("%.3f", beta),
			fmt.Sprintf("%d/%d", r.mu, r.nu),
			fmt.Sprintf("%d", b),
			fmt.Sprintf("%.2f", 3/(1+beta)),
			fmt.Sprintf("%.2fx", mG.Speedup(64)),
			fmt.Sprintf("%.2fx", mE.Speedup(64)),
		)
	}
	t.Notes = append(t.Notes,
		"small beta: cheap communication but many taps; large beta: few taps but inflated FFT+comm — beta=1/4 is the paper's sweet spot")
	return t
}

// minTapsForDigits searches the window designer for the smallest B whose
// predicted accuracy reaches the target digits at oversampling β.
func minTapsForDigits(beta float64, digits float64) int {
	for b := 8; b <= 120; b += 4 {
		d := window.Design(b, beta, 1e3)
		if d.Metrics.Digits() >= digits {
			return b
		}
	}
	return 120
}

// AblateWindow compares the paper's two-parameter (τ,σ) family against
// the one-parameter Gaussian at matched tap counts (paper Section 8: the
// Gaussian caps near 10 digits at β=1/4).
func AblateWindow(cfg Config) (*Table, error) {
	const n = 4096
	t := &Table{
		Title:  "Ablation: window family (tau-sigma vs gaussian)",
		Header: []string{"B", "family", "kappa", "pred digits", "measured SNR dB"},
	}
	src := signal.Random(n, 13)
	ref := make([]complex128, n)
	plan, err := fft.CachedPlan(n)
	if err != nil {
		return nil, err
	}
	plan.Forward(ref, src)
	for _, b := range []int{24, 48, 72} {
		for _, fam := range []string{"tau-sigma", "gaussian", "compact-bump"} {
			var d window.DesignResult
			switch fam {
			case "tau-sigma":
				d = window.Design(b, cfg.Beta, 1e3)
			case "gaussian":
				d = window.DesignGaussian(b, cfg.Beta)
			case "compact-bump":
				w, err := window.NewCompactBump(cfg.Beta, float64(b)/2+8)
				if err != nil {
					return nil, err
				}
				d = window.DesignResult{
					Window:  w,
					Metrics: window.Analyze(w, cfg.Beta, b),
					B:       b,
					Beta:    cfg.Beta,
				}
			}
			p := core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: b, Win: d.Window}
			cp, err := core.NewPlan(p)
			if err != nil {
				return nil, err
			}
			got := make([]complex128, n)
			if err := cp.Transform(got, src); err != nil {
				return nil, err
			}
			t.AddRow(
				fmt.Sprintf("%d", b),
				fam,
				fmt.Sprintf("%.2g", d.Metrics.Kappa),
				fmt.Sprintf("%.1f", d.Metrics.Digits()),
				fmt.Sprintf("%.0f", signal.SNRdB(got, ref)),
			)
		}
	}
	t.Notes = append(t.Notes,
		"paper Section 8: gaussian limited to ~10 digits at beta=1/4; tau-sigma reaches full accuracy",
		"compact-bump has exactly zero aliasing (paper Section 8) but sub-exponential tap decay")
	return t, nil
}

// AblateSegments sweeps segments-per-rank (paper Section 6: P can exceed
// the node count to increase parallel granularity; the evaluation used 8
// segments per process).
func AblateSegments(pointsPerRank, ranks, b int) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Ablation: segments per rank (%d ranks, %d points/rank)", ranks, pointsPerRank),
		Header: []string{"segments P", "seg/rank", "M'", "wall ms", "rel err vs FFT"},
	}
	n := pointsPerRank * ranks
	for _, spr := range []int{1, 2, 4, 8, 16} {
		p := ranks * spr
		run, err := RunSOIMeasured(n, ranks, p, b, int64(n))
		if err != nil {
			return nil, fmt.Errorf("P=%d: %w", p, err)
		}
		t.AddRow(
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%d", spr),
			fmt.Sprintf("%d", n/p/4*5),
			fmt.Sprintf("%.1f", float64(run.Wall.Microseconds())/1000),
			fmt.Sprintf("%.1e", run.RelErrVsFFT),
		)
	}
	t.Notes = append(t.Notes, "the paper's evaluation used 8 segments per MPI process")
	return t, nil
}

// AblateOpcount reproduces the Section 7.4 arithmetic analysis: the
// convolution costs ≈4× the FFT flops at B=72, but (paper) runs at ~40%
// of peak versus ~10% for the FFT, so its wall-clock share is ~half.
func AblateOpcount(cfg Config) (*Table, error) {
	t := &Table{
		Title: "Ablation: convolution vs FFT arithmetic (Section 7.4)",
		Header: []string{"N", "B", "conv/fft flops", "conv ms", "fft stages ms",
			"conv GF/s", "fft GF/s"},
	}
	for _, n := range []int{1 << 18, 1 << 20} {
		p := core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: cfg.B, Workers: 1}
		cp, err := core.NewPlan(p)
		if err != nil {
			return nil, err
		}
		src := signal.Random(n, int64(n))

		// Time the convolution kernel alone.
		ext := make([]complex128, n+cp.HaloLen())
		copy(ext, src)
		copy(ext[n:], src[:cp.HaloLen()])
		v := make([]complex128, cp.NPrime())
		t0 := time.Now()
		cp.ConvolveRange(v, ext, 0, cp.MPrime(), 0)
		convTime := time.Since(t0)

		// Time the FFT stages alone (I⊗F_P batch plus per-segment F_M').
		w := make([]complex128, cp.NPrime())
		yt := make([]complex128, cp.MPrime())
		t0 = time.Now()
		cp.BlockFFTBatch(w, v, cp.MPrime())
		for s := 0; s < p.P; s++ {
			cp.SegmentFFT(yt, w[s*cp.MPrime():(s+1)*cp.MPrime()])
		}
		fftTime := time.Since(t0)
		ratio := float64(cp.ConvFlops()) / float64(cp.FFTFlops())
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", cfg.B),
			fmt.Sprintf("%.2f", ratio),
			fmt.Sprintf("%.1f", convTime.Seconds()*1000),
			fmt.Sprintf("%.1f", fftTime.Seconds()*1000),
			fmt.Sprintf("%.2f", float64(cp.ConvFlops())/convTime.Seconds()/1e9),
			fmt.Sprintf("%.2f", float64(cp.FFTFlops())/fftTime.Seconds()/1e9),
		)
	}
	t.Notes = append(t.Notes,
		"paper: conv ops ~4x FFT ops at B=72, conv time ~= in-SOI FFT time thanks to the regular stride-P kernel")
	return t, nil
}
