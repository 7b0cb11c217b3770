package fft_test

import (
	"context"
	"fmt"
	"testing"

	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// soiSpectra runs src through pl end to end three ways — the
// shared-memory Transform of the one-worker and the two-worker plan, and
// a two-rank in-process RunDistributed — and returns the three spectra.
func soiSpectra(t *testing.T, pl [2]*core.Plan, src []complex128) [3][]complex128 {
	n := len(src)
	var out [3][]complex128
	for i := range out {
		out[i] = make([]complex128, n)
	}
	for i := range pl {
		if err := pl[i].Transform(out[i], src); err != nil {
			t.Fatal(err)
		}
	}
	const ranks = 2
	world, err := mpi.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	err = world.Run(func(c *mpi.Comm) error {
		lo, hi := c.Rank()*n/ranks, (c.Rank()+1)*n/ranks
		_, err := pl[0].RunDistributed(context.Background(), c, out[2][lo:hi], src[lo:hi])
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSOITransformBitIdenticalAcrossFFTKernels is the whole-pipeline form
// of the kernel tables: every path from core into this package (the fused
// F_P scatter of the shared-memory pass and of the distributed pack, the
// segment FFT of both) must produce the same
// spectrum bits with the SIMD kernels as with the Go kernels. It lives
// here, not in core, because only this directory can swap the dispatch
// variables; core's convolution kernel has the same test beside it.
func TestSOITransformBitIdenticalAcrossFFTKernels(t *testing.T) {
	if fft.Kernel() == "go" {
		t.Skipf("kernel %q: both legs would run the Go kernels", fft.Kernel())
	}
	params := []core.Params{
		{N: 1 << 12, P: 8, Mu: 5, Nu: 4, B: 24},
		{N: 1 << 14, P: 8, Mu: 5, Nu: 4, B: 72},
		{N: 1 << 13, P: 4, Mu: 5, Nu: 4, B: 31},
	}
	if !testing.Short() {
		params = append(params, core.Params{N: 1 << 19, P: 8, Mu: 5, Nu: 4, B: 72})
	}
	for _, p := range params {
		var pl [2]*core.Plan // the kernels are chosen per call, not per plan
		for i := range pl {
			p.Workers = i + 1
			var err error
			if pl[i], err = core.NewPlan(p); err != nil {
				t.Fatal(err)
			}
		}
		src := signal.Random(p.N, 20)
		got := soiSpectra(t, pl, src)
		t.Run(fmt.Sprintf("N=%d,P=%d", p.N, p.P), func(t *testing.T) {
			fft.UseGoKernels(t)
			want := soiSpectra(t, pl, src)
			for k, name := range []string{"Transform workers=1", "Transform workers=2", "RunDistributed ranks=2"} {
				for i := range want[k] {
					if !fft.SameBits(got[k][i], want[k][i]) {
						t.Fatalf("%s: y[%d] = %v with the SIMD kernels, Go kernels %v", name, i, got[k][i], want[k][i])
					}
				}
			}
		})
	}
}
