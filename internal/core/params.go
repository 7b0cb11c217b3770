// Package core implements the paper's primary contribution: the SOI
// (segment-of-interest) low-communication DFT factorization, Eq. (6):
//
//	y ≈ (I_P ⊗ Ŵ⁻¹ P_proj F_M') · P_perm^{P,N'} · (I_M' ⊗ F_P) · W · x
//
// Reading right to left: an oversampled sparse convolution W·x (the only
// step that mixes neighbouring input elements), a batch of P-point FFTs,
// one global stride-P permutation (the single all-to-all of the title),
// then per-segment M'-point FFTs, projection to M entries, and
// demodulation by the inverse window samples.
//
// One driver executes it over a Comm: Plan.RunDistributed on R ranks,
// and Plan.Transform, the shared-memory path, on a one-rank world whose
// all-to-all is the stride-P permutation landing in place.
package core

import (
	"fmt"

	"soifft/internal/window"
)

// Params configures a SOI factorization of an N-point DFT.
type Params struct {
	// N is the transform length; it must equal M*P for integral M.
	N int
	// P is the number of frequency segments (paper: segments = ranks ×
	// segments-per-rank). Each segment has M = N/P output points.
	P int
	// Mu, Nu define the oversampling rate 1+β = Mu/Nu (paper favourite:
	// 5/4, i.e. β = 1/4). Nu must divide M.
	Mu, Nu int
	// B is the number of convolution taps per output point (paper
	// Section 6: each output is a length-B stride-P inner product).
	// The paper's full-accuracy setting is B = 72.
	B int
	// Win is the reference window. When nil, a window is designed
	// automatically for (B, β) with κ ≤ 1e3.
	Win window.Window
	// Workers bounds the goroutines used by shared-memory execution;
	// 0 means GOMAXPROCS there and one per rank on a distributed run.
	Workers int
}

// Beta returns the oversampling fraction β = Mu/Nu − 1.
func (p Params) Beta() float64 { return float64(p.Mu)/float64(p.Nu) - 1 }

// Validate checks the arithmetic constraints of the factorization and
// returns a descriptive error for the first violation found.
func (p Params) Validate() error {
	switch {
	case p.N <= 0:
		return fmt.Errorf("core: N must be positive, got %d", p.N)
	case p.P <= 0:
		return fmt.Errorf("core: P must be positive, got %d", p.P)
	case p.N%p.P != 0:
		return fmt.Errorf("core: P=%d must divide N=%d", p.P, p.N)
	case p.Mu <= 0 || p.Nu <= 0:
		return fmt.Errorf("core: oversampling Mu/Nu must be positive, got %d/%d", p.Mu, p.Nu)
	case p.Mu <= p.Nu:
		return fmt.Errorf("core: oversampling Mu/Nu=%d/%d must exceed 1", p.Mu, p.Nu)
	case gcd(p.Mu, p.Nu) != 1:
		return fmt.Errorf("core: Mu/Nu=%d/%d must be in lowest terms", p.Mu, p.Nu)
	case p.B < 2:
		return fmt.Errorf("core: B=%d too small; need at least 2 taps", p.B)
	}
	m := p.N / p.P
	if m%p.Nu != 0 {
		return fmt.Errorf("core: Nu=%d must divide M=N/P=%d", p.Nu, m)
	}
	if p.B > m {
		return fmt.Errorf("core: B=%d exceeds M=%d; taps would wrap past one period", p.B, m)
	}
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
