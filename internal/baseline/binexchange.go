package baseline

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"time"

	"soifft/internal/core"
	"soifft/internal/exch"
	"soifft/internal/fft"
)

// BinaryExchange is the hypercube (butterfly) distributed FFT: log2(R)
// decimation-in-frequency stages exchange entire blocks between partner
// ranks, the residual length-N/R sub-transforms run locally, and one
// final all-to-all restores natural output order. Total communication is
// (log2(R)+1) block exchanges per rank, which exceeds the transpose
// algorithm's three once R > 4 — a useful contrast series for the
// weak-scaling figures.
type BinaryExchange struct{}

// Name identifies the algorithm in benchmark tables.
func (BinaryExchange) Name() string { return "binexchange" }

// tagButterfly+l tags round l's exchange, in exch's other band, below
// the halo band.
const tagButterfly = 100

// Transform requires a power-of-two rank count and N divisible by R².
func (BinaryExchange) Transform(c core.Comm, localOut, localIn []complex128, n int) (Times, error) {
	var tm Times
	nLocal, err := checkArgs(c, localOut, localIn, n)
	if err != nil {
		return tm, err
	}
	r := c.Size()
	if r&(r-1) != 0 {
		return tm, fmt.Errorf("baseline: binexchange needs power-of-two ranks, got %d", r)
	}
	if nLocal%r != 0 {
		return tm, fmt.Errorf("baseline: binexchange needs N ≥ R²; N/R=%d not divisible by R=%d", nLocal, r)
	}
	rho := bits.Len(uint(r)) - 1
	p := c.Rank()
	cur := append([]complex128(nil), localIn...)
	other := make([]complex128, nLocal) // the partner's block, then the final all-to-all's

	// Cross-rank DIF butterfly stages: at stage ℓ the sub-problem length
	// is m = n / 2^ℓ and the partner differs in rank bit (ρ−1−ℓ).
	for l := 0; l < rho; l++ {
		m := n >> l
		h := m >> 1
		partner := p ^ (h / nLocal)
		t0 := time.Now()
		if err := c.Send(partner, tagButterfly+l, cur); err != nil {
			return tm, fmt.Errorf("baseline: binexchange stage %d send: %w", l, err)
		}
		if err := c.RecvInto(other, partner, tagButterfly+l); err != nil {
			return tm, fmt.Errorf("baseline: binexchange stage %d receive: %w", l, err)
		}
		tm.Exchanges += time.Since(t0)
		tm.NumXchg++

		t0 = time.Now()
		high := p > partner // I hold the x[g+h] half of each pair
		for i := 0; i < nLocal; i++ {
			if !high {
				cur[i] += other[i]
				continue
			}
			g := p*nLocal + i
			j := g % h
			ang := -2 * math.Pi * float64(j) / float64(m)
			cur[i] = (other[i] - cur[i]) * cmplx.Exp(complex(0, ang))
		}
		tm.Compute += time.Since(t0)
	}

	// Local residual transform: the block now holds one complete
	// sub-problem whose DFT yields outputs y[q·R + bitrev(p)].
	t0 := time.Now()
	plan, err := fft.CachedPlan(nLocal)
	if err != nil {
		return tm, err
	}
	plan.Forward(cur, cur)
	tm.Compute += time.Since(t0)

	// Final all-to-all: redistribute the stride-R outputs into natural
	// block order.
	t0 = time.Now()
	qPer := nLocal / r
	// Element q of cur is y[q·R + br]; destination rank is (q·R+br)/nLocal
	// = q/qPer, so contiguous q-ranges map to ranks in order: cur is
	// already packed correctly for an equal-count all-to-all.
	if err := exch.Alltoall(c, other, cur, qPer); err != nil {
		return tm, fmt.Errorf("baseline: binexchange final all-to-all: %w", err)
	}
	for src := 0; src < r; src++ {
		sbr := reverseBits(src, rho)
		chunk := other[src*qPer : (src+1)*qPer]
		for qq := 0; qq < qPer; qq++ {
			localOut[qq*r+sbr] = chunk[qq]
		}
	}
	tm.Exchanges += time.Since(t0)
	tm.NumXchg++
	return tm, nil
}

func reverseBits(v, width int) int {
	out := 0
	for i := 0; i < width; i++ {
		out = out<<1 | (v & 1)
		v >>= 1
	}
	return out
}
