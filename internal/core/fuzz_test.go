package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"soifft/internal/fft"
	"soifft/internal/signal"
)

// TestPropSOIAccuracyMatchesPrediction fuzzes random valid (N, P, β, B)
// combinations and checks that the measured error never exceeds the
// window-metric prediction by more than a safety factor — the paper's
// Section 4 error characterization, exercised across the design space.
func TestPropSOIAccuracyMatchesPrediction(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz is slow")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ratios := [][2]int{{5, 4}, {3, 2}, {9, 8}, {2, 1}}
		rat := ratios[rng.Intn(len(ratios))]
		ps := []int{1, 2, 4, 8}
		pSeg := ps[rng.Intn(len(ps))]
		// M must be a multiple of Nu and at least B.
		mult := 1 + rng.Intn(12)
		m := rat[1] * 8 * mult // multiple of Nu, 8·Nu..96·Nu
		b := 8 + rng.Intn(5)*8 // 8..40
		if b > m {
			b = m
		}
		p := Params{N: m * pSeg, P: pSeg, Mu: rat[0], Nu: rat[1], B: b}
		pl, err := NewPlan(p)
		if err != nil {
			t.Logf("seed %d: plan error %v for %+v", seed, err, p)
			return false
		}
		src := signal.Random(p.N, seed)
		want := make([]complex128, p.N)
		fft.Direct(want, src)
		got := make([]complex128, p.N)
		if err := pl.Transform(got, src); err != nil {
			return false
		}
		e := signal.RelErrL2(got, want)
		tol := math.Max(pl.Metrics().TotalError()*1000, 1e-10)
		if e > tol {
			t.Logf("seed %d: %+v err %.3e > tol %.3e", seed, p, e, tol)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestPropDistributedMatchesSerial fuzzes rank counts and segment shapes
// and requires bit-identical agreement between the distributed and the
// single-worker shared-memory paths.
func TestPropDistributedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz is slow")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := []int{1, 2, 4, 8}
		r := rs[rng.Intn(len(rs))]
		spr := 1 + rng.Intn(3)
		pSeg := r * spr
		m := 4 * (8 + rng.Intn(24)) // multiple of Nu=4
		b := 8 + rng.Intn(3)*8
		if b > m {
			b = m
		}
		p := Params{N: m * pSeg, P: pSeg, Mu: 5, Nu: 4, B: b, Workers: 1}
		pl, err := NewPlan(p)
		if err != nil {
			return false
		}
		if pl.ValidateDistributed(r) != nil {
			return true // shape not distributable at this r; nothing to check
		}
		src := signal.Random(p.N, seed)
		serial := make([]complex128, p.N)
		if err := pl.Transform(serial, src); err != nil {
			return false
		}
		got, _, _ := runSOIDistributed(t, p, r, seed)
		return signal.MaxAbsErr(got, serial) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
