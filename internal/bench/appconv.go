package bench

import (
	"fmt"
	"time"

	"soifft/internal/conv"
	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/netsim"
	"soifft/internal/signal"
)

// AppConvolution runs the distributed-convolution application for real
// (correctness + exchange counts) and prices the steady-state exchange
// ladder on the paper's fabrics: per convolution with a cached filter
// spectrum, SOI needs 2 all-to-alls of (1+β)N, the out-of-order
// transform pair 4 of N, and the conventional in-order pair 6 of N.
func AppConvolution(cfg Config, n, ranks int) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Application: distributed cyclic convolution (measured at N=%d, R=%d)", n, ranks),
		Header: []string{"strategy", "a2a/conv", "rel err", "wall ms",
			"modeled Gordon64 comm", "modeled 10GbE64 comm"},
	}
	nLocal := n / ranks
	x := signal.Random(n, 1)
	h := signal.Random(n, 2)
	spec, err := fft.Forward(h)
	if err != nil {
		return nil, err
	}
	ref, err := fft.Forward(x)
	if err != nil {
		return nil, err
	}
	for i := range ref {
		ref[i] *= spec[i]
	}
	want, err := fft.Inverse(ref)
	if err != nil {
		return nil, err
	}

	bytesPerNode := cfg.PointsPerNode * 16
	gordon, tenge := netsim.Gordon(), netsim.TenGigE()
	commCost := func(exchanges int, oversampled bool) (time.Duration, time.Duration) {
		b := bytesPerNode
		if oversampled {
			b = int64(float64(bytesPerNode) * (1 + cfg.Beta))
		}
		return time.Duration(exchanges) * gordon.AlltoallTime(64, b),
			time.Duration(exchanges) * tenge.AlltoallTime(64, b)
	}

	// SOI strategy.
	pl, err := core.NewPlan(core.Params{N: n, P: max(8, ranks), Mu: 5, Nu: 4, B: 48})
	if err != nil {
		return nil, err
	}
	got := make([]complex128, n)
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	err = w.Run(func(c *mpi.Comm) error {
		return conv.SOI(c, pl, got[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			x[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			spec[c.Rank()*nLocal:(c.Rank()+1)*nLocal])
	})
	if err != nil {
		return nil, err
	}
	gA, eA := commCost(2, true)
	t.AddRow("SOI (2 a2a)", fmt.Sprintf("%d", w.Stats().Alltoalls),
		fmt.Sprintf("%.1e", signal.RelErrL2(got, want)),
		fmt.Sprintf("%.1f", time.Since(t0).Seconds()*1000),
		fmt.Sprintf("%.2fs", gA.Seconds()), fmt.Sprintf("%.2fs", eA.Seconds()))

	// Out-of-order strategy.
	o, err := conv.PlanOutOfOrder(n, ranks)
	if err != nil {
		return nil, err
	}
	hsT := make([][]complex128, ranks)
	wPre, _ := mpi.NewWorld(ranks)
	if err := wPre.Run(func(c *mpi.Comm) error {
		hs, err := o.Forward(c, h[c.Rank()*nLocal:(c.Rank()+1)*nLocal])
		hsT[c.Rank()] = hs
		return err
	}); err != nil {
		return nil, err
	}
	w2, _ := mpi.NewWorld(ranks)
	t0 = time.Now()
	err = w2.Run(func(c *mpi.Comm) error {
		return o.Convolve(c, got[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			x[c.Rank()*nLocal:(c.Rank()+1)*nLocal], hsT[c.Rank()])
	})
	if err != nil {
		return nil, err
	}
	gB, eB := commCost(4, false)
	t.AddRow("out-of-order (4 a2a)", fmt.Sprintf("%d", w2.Stats().Alltoalls),
		fmt.Sprintf("%.1e", signal.RelErrL2(got, want)),
		fmt.Sprintf("%.1f", time.Since(t0).Seconds()*1000),
		fmt.Sprintf("%.2fs", gB.Seconds()), fmt.Sprintf("%.2fs", eB.Seconds()))

	// In-order strategy.
	w3, _ := mpi.NewWorld(ranks)
	t0 = time.Now()
	err = w3.Run(func(c *mpi.Comm) error {
		return conv.InOrder(c, got[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			x[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			spec[c.Rank()*nLocal:(c.Rank()+1)*nLocal], n)
	})
	if err != nil {
		return nil, err
	}
	gC, eC := commCost(6, false)
	t.AddRow("in-order (6 a2a)", fmt.Sprintf("%d", w3.Stats().Alltoalls),
		fmt.Sprintf("%.1e", signal.RelErrL2(got, want)),
		fmt.Sprintf("%.1f", time.Since(t0).Seconds()*1000),
		fmt.Sprintf("%.2fs", gC.Seconds()), fmt.Sprintf("%.2fs", eC.Seconds()))

	t.Notes = append(t.Notes,
		"steady-state filtering with cached filter spectrum; modeled comm at 64 nodes, paper weak-scaling load",
		"paper intro: out-of-order data (e.g. convolution) reduces transposes; SOI compounds the saving")
	return t, nil
}
