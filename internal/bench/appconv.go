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
		Header: []string{"strategy", "a2a/conv", "rel err",
			"modeled Gordon64 comm", "modeled 10GbE64 comm"},
	}
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

	// part is rank c's block of a distributed vector; run runs fn on a
	// fresh world and returns the all-to-alls it made.
	part := func(v []complex128, c *mpi.Comm) []complex128 {
		nLocal := n / ranks
		return v[c.Rank()*nLocal : (c.Rank()+1)*nLocal]
	}
	run := func(fn func(c *mpi.Comm) error) (int64, error) {
		w, err := mpi.NewWorld(ranks)
		if err != nil {
			return 0, err
		}
		err = w.Run(fn)
		return w.Stats().Alltoalls, err
	}
	bytesPerNode := cfg.PointsPerNode * 16
	gordon, tenge := netsim.Gordon(), netsim.TenGigE()
	got := make([]complex128, n)
	addRow := func(name string, alltoalls int64, exchanges int, oversampled bool) {
		b := bytesPerNode
		if oversampled {
			b = int64(float64(bytesPerNode) * (1 + cfg.Beta))
		}
		t.AddRow(name, fmt.Sprintf("%d", alltoalls),
			fmt.Sprintf("%.1e", signal.RelErrL2(got, want)),
			fmt.Sprintf("%.2fs", (time.Duration(exchanges)*gordon.AlltoallTime(64, b)).Seconds()),
			fmt.Sprintf("%.2fs", (time.Duration(exchanges)*tenge.AlltoallTime(64, b)).Seconds()))
	}

	// SOI strategy.
	pl, err := core.NewPlan(core.Params{N: n, P: max(8, ranks), Mu: 5, Nu: 4, B: 48})
	if err != nil {
		return nil, err
	}
	a2a, err := run(func(c *mpi.Comm) error {
		return conv.SOI(c, pl, part(got, c), part(x, c), part(spec, c))
	})
	if err != nil {
		return nil, err
	}
	addRow("SOI (2 a2a)", a2a, 2, true)

	// Out-of-order strategy: the filter's scrambled spectrum is computed
	// once, on a world of its own, as a cached filter would be.
	o, err := conv.PlanOutOfOrder(n, ranks)
	if err != nil {
		return nil, err
	}
	hsT := make([][]complex128, ranks)
	if _, err := run(func(c *mpi.Comm) error {
		hs, err := o.Forward(c, part(h, c))
		hsT[c.Rank()] = hs
		return err
	}); err != nil {
		return nil, err
	}
	a2a, err = run(func(c *mpi.Comm) error {
		return o.Convolve(c, part(got, c), part(x, c), hsT[c.Rank()])
	})
	if err != nil {
		return nil, err
	}
	addRow("out-of-order (4 a2a)", a2a, 4, false)

	// In-order strategy.
	a2a, err = run(func(c *mpi.Comm) error {
		return conv.InOrder(c, part(got, c), part(x, c), part(spec, c), n)
	})
	if err != nil {
		return nil, err
	}
	addRow("in-order (6 a2a)", a2a, 6, false)

	t.Notes = append(t.Notes,
		"steady-state filtering with cached filter spectrum; modeled comm at 64 nodes, paper weak-scaling load",
		"paper intro: out-of-order data (e.g. convolution) reduces transposes; SOI compounds the saving")
	return t, nil
}
