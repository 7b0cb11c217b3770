package bench

import (
	"context"
	"fmt"
	"time"

	"soifft/internal/baseline"
	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// MeasuredRun is one real end-to-end distributed execution on the
// in-process runtime.
type MeasuredRun struct {
	Algorithm   string
	Ranks       int
	N           int
	Wall        time.Duration // timed by RunSOIMeasured only
	Alltoalls   int64
	AlltoallMB  float64
	TotalMB     float64
	RelErrVsFFT float64
}

// RunSOIMeasured executes the distributed SOI transform for real and
// checks it against the conventional FFT.
func RunSOIMeasured(n, ranks, segments, b int, seed int64) (MeasuredRun, error) {
	res := MeasuredRun{Algorithm: "SOI", Ranks: ranks, N: n}
	p := core.Params{N: n, P: segments, Mu: 5, Nu: 4, B: b}
	pl, err := core.NewPlan(p)
	if err != nil {
		return res, err
	}
	if err := pl.ValidateDistributed(ranks); err != nil {
		return res, err
	}
	src := signal.Random(n, seed)
	got := make([]complex128, n)
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		return res, err
	}
	nLocal := n / ranks
	t0 := time.Now()
	err = w.Run(func(c *mpi.Comm) error {
		_, err := pl.RunDistributed(context.Background(), c,
			got[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			src[c.Rank()*nLocal:(c.Rank()+1)*nLocal])
		return err
	})
	res.Wall = time.Since(t0)
	if err != nil {
		return res, err
	}
	fillMeasured(&res, w.Stats(), got, src)
	return res, nil
}

// RunBaselineMeasured executes a triple-all-to-all (or binary-exchange)
// baseline for real.
func RunBaselineMeasured(alg baseline.Algorithm, n, ranks int, seed int64) (MeasuredRun, error) {
	res := MeasuredRun{Algorithm: alg.Name(), Ranks: ranks, N: n}
	src := signal.Random(n, seed)
	got := make([]complex128, n)
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		return res, err
	}
	nLocal := n / ranks
	err = w.Run(func(c *mpi.Comm) error {
		_, err := alg.Transform(c,
			got[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			src[c.Rank()*nLocal:(c.Rank()+1)*nLocal], n)
		return err
	})
	if err != nil {
		return res, err
	}
	fillMeasured(&res, w.Stats(), got, src)
	return res, nil
}

func fillMeasured(res *MeasuredRun, st mpi.Stats, got, src []complex128) {
	res.Alltoalls = st.Alltoalls
	res.AlltoallMB = float64(st.AlltoallBytes) / 1e6
	res.TotalMB = float64(st.P2PBytes) / 1e6
	ref, err := fft.Forward(src)
	if err == nil {
		res.RelErrVsFFT = signal.RelErrL2(got, ref)
	}
}

// MeasuredWeakScaling runs every algorithm for real at laptop scale
// (pointsPerRank complex points per rank) and reports traffic and
// accuracy. This is the ground-truth companion to the modeled figures:
// the communication *counts* here are exact. Wall times are benchmark/'s
// (baseline.sixstep_ms, core.dist_*).
func MeasuredWeakScaling(pointsPerRank int, ranks []int, b int) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Measured weak scaling (in-process ranks, %d points/rank)", pointsPerRank),
		Header: []string{"ranks", "N", "algorithm", "a2a count",
			"a2a MB", "wire MB", "rel err vs FFT"},
	}
	algs := []baseline.Algorithm{
		baseline.SixStep{},
		baseline.SixStep{Split: baseline.SplitTall},
		baseline.BinaryExchange{},
	}
	for _, r := range ranks {
		n := pointsPerRank * r
		segments := 8
		if segments < r {
			segments = r
		}
		soi, err := RunSOIMeasured(n, r, segments, b, int64(n))
		if err != nil {
			return nil, fmt.Errorf("soi R=%d: %w", r, err)
		}
		addMeasuredRow(t, soi)
		for _, alg := range algs {
			run, err := RunBaselineMeasured(alg, n, r, int64(n))
			if err != nil {
				return nil, fmt.Errorf("%s R=%d: %w", alg.Name(), r, err)
			}
			addMeasuredRow(t, run)
		}
	}
	t.Notes = append(t.Notes,
		"in-process channels carry no real wire cost; counts and volumes are what a cluster would see",
		"SOI: 1 all-to-all of (1+beta)N; six-step: 3 of N; binexchange: log2(R) block exchanges + 1 reorder")
	return t, nil
}

func addMeasuredRow(t *Table, r MeasuredRun) {
	t.AddRow(
		fmt.Sprintf("%d", r.Ranks),
		fmt.Sprintf("%d", r.N),
		r.Algorithm,
		fmt.Sprintf("%d", r.Alltoalls),
		fmt.Sprintf("%.1f", r.AlltoallMB),
		fmt.Sprintf("%.1f", r.TotalMB),
		fmt.Sprintf("%.1e", r.RelErrVsFFT),
	)
}
