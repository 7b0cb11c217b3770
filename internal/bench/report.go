package bench

import (
	"context"
	"fmt"
	"io"
	"time"

	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/instrument"
	"soifft/internal/mpi"
	"soifft/internal/perfmodel"
	"soifft/internal/signal"
)

// ObservabilityReport runs one real distributed SOI transform with stage
// timers armed and renders what the instrumentation saw: per-stage wall
// time, occupancy and achieved compute rate, plus the measured all-to-all
// volume against the analytic (1+β)N exchange and against a conventional
// triple-all-to-all FFT — the paper's 3/(1+β) communication prediction,
// checked on live counters instead of a model.
func ObservabilityReport(n, ranks, segments, b int) (*Table, error) {
	p := core.Params{N: n, P: segments, Mu: 5, Nu: 4, B: b}
	pl, err := core.NewPlan(p)
	if err != nil {
		return nil, err
	}
	if err := pl.ValidateDistributed(ranks); err != nil {
		return nil, err
	}
	pl.SetRecorder(instrument.New(instrument.LevelTimers))

	src := signal.Random(n, int64(n))
	got := make([]complex128, n)
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	nLocal := n / ranks
	err = w.Run(func(c *mpi.Comm) error {
		_, err := pl.RunDistributed(context.Background(), c,
			got[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			src[c.Rank()*nLocal:(c.Rank()+1)*nLocal])
		return err
	})
	if err != nil {
		return nil, err
	}

	snap := pl.Recorder().Snapshot()
	t := &Table{
		Title: fmt.Sprintf("Observability report (N=%d, R=%d ranks, P=%d, B=%d, mu/nu=%d/%d)",
			n, ranks, segments, b, p.Mu, p.Nu),
		Header: []string{"stage", "calls", "wall ms", "occup", "gflop/s"},
	}
	for _, st := range snap.Stages {
		if st.Calls == 0 {
			continue
		}
		t.AddRow(
			st.Stage.String(),
			fmt.Sprintf("%d", st.Calls),
			fmt.Sprintf("%.2f", float64(st.Wall.Microseconds())/1000),
			fmt.Sprintf("%.2f", st.Occupancy()),
			fmt.Sprintf("%.2f", st.GFlopsPerSec()),
		)
	}

	beta := float64(p.Mu-p.Nu) / float64(p.Nu)
	model := perfmodel.Model{Beta: beta}
	measured := snap.Comm.AlltoallBytes
	analytic := analyticAlltoallBytes(n, p.Mu, p.Nu, ranks)
	baseline := 3 * int64(16) * int64(n) * int64(ranks-1) / int64(ranks)
	t.Notes = append(t.Notes,
		fmt.Sprintf("all-to-all: %d ops, %d bytes measured; analytic (1+beta)N exchange = %d bytes",
			snap.Comm.Alltoalls, measured, analytic),
		fmt.Sprintf("vs triple-all-to-all baseline (%d bytes): measured ratio %.3f, paper predicts 3/(1+beta) = %.3f",
			baseline, float64(baseline)/float64(measured), model.AsymptoticSpeedup()),
		fmt.Sprintf("stage rows aggregate all %d ranks; occupancy is busy/(wall*workers)", ranks),
		fmt.Sprintf("convolve kernel: %s", core.ConvolveKernel()),
	)
	return t, nil
}

// analyticAlltoallBytes is the inter-rank volume of the SOI exchange: the
// oversampled spectrum of N' = (mu/nu)·N complex128 points redistributed
// once, minus each rank's self-chunk — 16·N'·(R−1)/R bytes total.
func analyticAlltoallBytes(n, mu, nu, ranks int) int64 {
	nPrime := int64(n) * int64(mu) / int64(nu)
	return 16 * nPrime * int64(ranks-1) / int64(ranks)
}

// InstrumentationOverhead times the single-node transform with the
// recorder off and with full timers, returning the best-of-iters wall
// time for each. It is the measurement behind the "near-zero cost when
// off" claim: off should be within noise of an uninstrumented build.
func InstrumentationOverhead(n, iters int) (off, timers time.Duration, err error) {
	if iters < 1 {
		iters = 1
	}
	run := func(level instrument.Level) (time.Duration, error) {
		pl, err := core.NewPlan(core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: 72})
		if err != nil {
			return 0, err
		}
		pl.SetRecorder(instrument.New(level))
		src := signal.Random(n, 7)
		dst := make([]complex128, n)
		best := time.Duration(-1)
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			if err := pl.Transform(dst, src); err != nil {
				return 0, err
			}
			if d := time.Since(t0); best < 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	if off, err = run(instrument.LevelOff); err != nil {
		return 0, 0, err
	}
	if timers, err = run(instrument.LevelTimers); err != nil {
		return 0, 0, err
	}
	return off, timers, nil
}

// WriteStageReport renders a recorder snapshot as a compact per-stage
// text block, used by soinode -report for a single rank's view.
func WriteStageReport(w io.Writer, label string, snap instrument.Snapshot) {
	fmt.Fprintf(w, "%s: %d transform(s), convolve kernel %s, fft kernel %s\n",
		label, snap.Transforms, core.ConvolveKernel(), fft.Kernel())
	for _, st := range snap.Stages {
		if st.Calls == 0 {
			continue
		}
		fmt.Fprintf(w, "%s:   %-11s calls %-4d wall %-12v occup %.2f  %.2f GF/s\n",
			label, st.Stage.String(), st.Calls, st.Wall, st.Occupancy(), st.GFlopsPerSec())
	}
	c := snap.Comm
	if c.Messages+c.Alltoalls > 0 {
		fmt.Fprintf(w, "%s:   comm: %d msgs (%d B), %d all-to-all (%d B), %d retransmits, %d deadline, %d checksum\n",
			label, c.Messages, c.Bytes, c.Alltoalls, c.AlltoallBytes,
			c.Retransmits, c.DeadlineEvents, c.ChecksumErrors)
	}
	if c.StreamChunks > 0 {
		fmt.Fprintf(w, "%s:   stream: %d chunks, overlap %.0f%%, credit-stall %v\n",
			label, c.StreamChunks,
			100*c.OverlapRatio(snap.Stages[instrument.StageExchange].Wall),
			c.CreditStall.Round(time.Microsecond))
	}
}
