package core

// Native Go fuzz targets. Without -fuzz these run their seed corpus as
// ordinary tests; with `go test -fuzz=FuzzSOITransform ./internal/core`
// the engine explores the parameter space automatically.

import (
	"testing"

	"soifft/internal/fft"
	"soifft/internal/signal"
)

func FuzzSOITransform(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(8), uint8(3))
	f.Add(int64(7), uint8(0), uint8(16), uint8(1))
	f.Add(int64(42), uint8(3), uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, pIdx, mMult, bIdx uint8) {
		ps := []int{1, 2, 4, 8}
		pSeg := ps[int(pIdx)%len(ps)]
		m := 4 * (4 + int(mMult)%40) // multiple of Nu=4, 16..172
		bs := []int{8, 16, 24, 32}
		b := bs[int(bIdx)%len(bs)]
		if b > m {
			b = m
		}
		p := Params{N: m * pSeg, P: pSeg, Mu: 5, Nu: 4, B: b}
		pl, err := NewPlan(p)
		if err != nil {
			t.Fatalf("valid-by-construction params rejected: %+v: %v", p, err)
		}
		src := signal.Random(p.N, seed)
		want := make([]complex128, p.N)
		fft.Direct(want, src)
		got := make([]complex128, p.N)
		if err := pl.Transform(got, src); err != nil {
			t.Fatal(err)
		}
		tol := pl.Metrics().TotalError() * 1000
		if tol < 1e-9 {
			tol = 1e-9
		}
		if e := signal.RelErrL2(got, want); e > tol {
			t.Errorf("params %+v: rel err %.3e > tol %.3e", p, e, tol)
		}
	})
}

func FuzzValidateNeverPanics(f *testing.F) {
	f.Add(64, 4, 5, 4, 8)
	f.Add(0, 0, 0, 0, 0)
	f.Add(-8, 3, 2, 7, 1)
	f.Fuzz(func(t *testing.T, n, p, mu, nu, b int) {
		prm := Params{N: n, P: p, Mu: mu, Nu: nu, B: b}
		// Must never panic, whatever the integers.
		err := prm.Validate()
		if err == nil {
			// If it validates, the plan must build.
			if _, err2 := NewPlan(prm); err2 != nil {
				t.Errorf("Validate accepted %+v but NewPlan failed: %v", prm, err2)
			}
		}
	})
}
