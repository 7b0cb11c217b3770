package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"soifft/internal/fft"
	"soifft/internal/instrument"
	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// runSOIDistributed executes the plan over r ranks (with any DistOptions
// passed through) and returns the gathered output, the direct-DFT
// reference and the traffic stats.
func runSOIDistributed(t *testing.T, p Params, r int, seed int64, opts ...DistOption) ([]complex128, []complex128, mpi.Stats) {
	t.Helper()
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	src := signal.Random(p.N, seed)
	want := make([]complex128, p.N)
	fft.Direct(want, src)
	got := make([]complex128, p.N)
	w, err := mpi.NewWorld(r)
	if err != nil {
		t.Fatal(err)
	}
	nLocal := p.N / r
	err = w.Run(func(c *mpi.Comm) error {
		in := src[c.Rank()*nLocal : (c.Rank()+1)*nLocal]
		out := got[c.Rank()*nLocal : (c.Rank()+1)*nLocal]
		_, err := pl.RunDistributed(context.Background(), c, out, in, opts...)
		return err
	})
	if err != nil {
		t.Fatalf("RunDistributed N=%d R=%d: %v", p.N, r, err)
	}
	return got, want, w.Stats()
}

func TestDistributedSOIMatchesDirect(t *testing.T) {
	cases := []struct {
		p Params
		r int
	}{
		{Params{N: 256, P: 4, Mu: 5, Nu: 4, B: 8}, 1},
		{Params{N: 256, P: 4, Mu: 5, Nu: 4, B: 8}, 2},
		{Params{N: 256, P: 4, Mu: 5, Nu: 4, B: 8}, 4},
		{Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 32}, 8},
		{Params{N: 1024, P: 16, Mu: 5, Nu: 4, B: 16}, 4}, // segments > ranks
		{Params{N: 2048, P: 16, Mu: 5, Nu: 4, B: 48}, 8}, // 2 segments per rank
		{Params{N: 960, P: 8, Mu: 5, Nu: 4, B: 24}, 2},   // non power-of-two N
		{Params{N: 1280, P: 8, Mu: 5, Nu: 4, B: 24}, 4},  // 5-smooth N
		{Params{N: 512, P: 8, Mu: 3, Nu: 2, B: 24}, 8},   // β = 1/2
	}
	for _, c := range cases {
		pl, err := NewPlan(c.p)
		if err != nil {
			t.Errorf("NewPlan(%+v): %v", c.p, err)
			continue
		}
		got, want, _ := runSOIDistributed(t, c.p, c.r, int64(c.p.N+c.r))
		e := signal.RelErrL2(got, want)
		tol := pl.Metrics().TotalError() * 100
		if tol < 1e-11 {
			tol = 1e-11
		}
		if e > tol {
			t.Errorf("params %+v R=%d: rel error %.3e > %.3e", c.p, c.r, e, tol)
		}
	}
}

func TestDistributedMatchesSerialExactly(t *testing.T) {
	// The distributed pipeline reorders identical floating-point
	// operations; results must match the shared-memory path bit-for-bit.
	p := Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 48, Workers: 1}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(p.N, 21)
	serial := make([]complex128, p.N)
	if err := pl.Transform(serial, src); err != nil {
		t.Fatal(err)
	}
	got, _, _ := runSOIDistributed(t, p, 4, 21)
	if e := signal.MaxAbsErr(got, serial); e != 0 {
		t.Errorf("distributed differs from serial by %.3e", e)
	}
}

func TestDistributedSingleAlltoall(t *testing.T) {
	// The headline claim: one all-to-all, regardless of rank count.
	for _, r := range []int{2, 4, 8} {
		p := Params{N: 2048, P: 8, Mu: 5, Nu: 4, B: 32}
		_, _, stats := runSOIDistributed(t, p, r, 5)
		if stats.Alltoalls != 1 {
			t.Errorf("R=%d: SOI used %d all-to-alls, want exactly 1", r, stats.Alltoalls)
		}
		// Wire messages: one halo send per rank plus the all-to-all's
		// r·(r−1) chunk messages — nothing else.
		want := int64(r + r*(r-1))
		if stats.P2PMessages != want {
			t.Errorf("R=%d: %d wire messages, want %d", r, stats.P2PMessages, want)
		}
	}
}

func TestDistributedAlltoallVolumeIsOversampled(t *testing.T) {
	// SOI's one exchange carries (1+β)·N points; verify the byte count.
	p := Params{N: 2048, P: 8, Mu: 5, Nu: 4, B: 32}
	r := 4
	_, _, stats := runSOIDistributed(t, p, r, 6)
	nPrime := p.N / p.Nu * p.Mu
	// Total inter-rank payload: each rank sends (R-1)/R of its N'/R chunk.
	want := int64(nPrime * 16 * (r - 1) / r)
	if stats.AlltoallBytes != want {
		t.Errorf("all-to-all bytes = %d, want %d ((1+β)N scaled)", stats.AlltoallBytes, want)
	}
}

func TestValidateDistributed(t *testing.T) {
	p := Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 32}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 4, 8} {
		if err := pl.ValidateDistributed(r); err != nil {
			t.Errorf("R=%d should be valid: %v", r, err)
		}
	}
	bad := map[int]string{
		0:  "must be positive",
		3:  "must divide segments",
		16: "must divide segments",
	}
	for r, frag := range bad {
		err := pl.ValidateDistributed(r)
		if err == nil || !strings.Contains(err.Error(), frag) {
			t.Errorf("R=%d: err %v, want fragment %q", r, err, frag)
		}
	}
	// Halo overflow: B large relative to per-rank block.
	p2 := Params{N: 512, P: 8, Mu: 5, Nu: 4, B: 64}
	pl2, err := NewPlan(p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl2.ValidateDistributed(8); err == nil || !strings.Contains(err.Error(), "halo") {
		t.Errorf("expected halo error, got %v", err)
	}
}

func TestRunDistributedBadLocalLength(t *testing.T) {
	p := Params{N: 256, P: 4, Mu: 5, Nu: 4, B: 8}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := mpi.NewWorld(2)
	err = w.Run(func(c *mpi.Comm) error {
		buf := make([]complex128, 10)
		_, err := pl.RunDistributed(context.Background(), c, buf, buf)
		return err
	})
	if err == nil {
		t.Error("expected local length error")
	}
}

func TestDistributedTimesAccounting(t *testing.T) {
	p := Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 32}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(p.N, 8)
	w, _ := mpi.NewWorld(4)
	nLocal := p.N / 4
	err = w.Run(func(c *mpi.Comm) error {
		out := make([]complex128, nLocal)
		dt, err := pl.RunDistributed(context.Background(), c, out, src[c.Rank()*nLocal:(c.Rank()+1)*nLocal])
		if err != nil {
			return err
		}
		if dt.Total() <= 0 {
			t.Errorf("rank %d: nonpositive total time", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestHybridWorkersBitIdentical(t *testing.T) {
	// Paper Fig 2: MPI ranks × OpenMP threads. Intra-rank workers must
	// not change results (row partitioning only, no re-association).
	base := Params{N: 2048, P: 16, Mu: 5, Nu: 4, B: 32, Workers: 1}
	ref, _, _ := runSOIDistributed(t, base, 4, 55)
	hybrid := base
	hybrid.Workers = 4
	got, _, _ := runSOIDistributed(t, hybrid, 4, 55)
	if e := signal.MaxAbsErr(got, ref); e != 0 {
		t.Errorf("hybrid workers changed the result by %.3e", e)
	}
}

// TestRunDistributedSegment: the distributed segment returns the node
// segment's bits on root and nil elsewhere, for every rank count, worker
// count and segment, and books its stages: each rank one convolve, root
// one segment_fft, and the halo and gather payloads it sent as messages.
// The node path sends nothing and books no message.
func TestRunDistributedSegment(t *testing.T) {
	p := Params{N: 2048, P: 8, Mu: 5, Nu: 4, B: 32}
	src := signal.Random(p.N, 91)
	for _, ranks := range []int{1, 2, 4} {
		for _, workers := range []int{1, 3} {
			p.Workers = workers
			root := ranks - 1 // not 0 whenever there is a choice
			node, err := NewPlan(p)
			if err != nil {
				t.Fatal(err)
			}
			nodeRec := instrument.New(instrument.LevelCounters)
			node.SetRecorder(nodeRec)
			pls, recs := make([]*Plan, ranks), make([]*instrument.Recorder, ranks)
			for i := range pls {
				if pls[i], err = NewPlan(p); err != nil {
					t.Fatal(err)
				}
				recs[i] = instrument.New(instrument.LevelCounters)
				pls[i].SetRecorder(recs[i])
			}
			w, _ := mpi.NewWorld(ranks)
			nLocal, halo, bpr := p.N/ranks, node.HaloLen(), node.mp/ranks
			if ranks > 1 && halo > nLocal {
				t.Fatalf("R=%d: halo %d spans more than one neighbour block %d", ranks, halo, nLocal)
			}
			for s := 0; s < p.P; s++ {
				name := fmt.Sprintf("R=%d/workers=%d/s=%d", ranks, workers, s)
				want := make([]complex128, node.M())
				nodeRec.Reset()
				if err := node.TransformSegment(want, src, s); err != nil {
					t.Fatalf("%s: node: %v", name, err)
				}
				ns := nodeRec.Snapshot()
				if ns.Comm.Messages != 0 || ns.Stages[instrument.StageConvolve].Calls != 1 ||
					ns.Stages[instrument.StageSegmentFFT].Calls != 1 {
					t.Errorf("%s: node booked %d messages, %d convolve, %d segment_fft; want 0, 1, 1", name, ns.Comm.Messages,
						ns.Stages[instrument.StageConvolve].Calls, ns.Stages[instrument.StageSegmentFFT].Calls)
				}
				for _, rec := range recs {
					rec.Reset()
				}
				var got []complex128
				err := w.Run(func(c *mpi.Comm) error {
					rank := c.Rank()
					out, err := pls[rank].RunDistributedSegment(c, src[rank*nLocal:(rank+1)*nLocal], s, root)
					if rank == root {
						got = out
					} else if out != nil {
						t.Errorf("%s: non-root rank %d received data", name, rank)
					}
					return err
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s: element %d is %v, the node segment's %v", name, i, got[i], want[i])
					}
				}
				for rank, rec := range recs {
					var msgs, bytes int64
					if ranks > 1 {
						msgs, bytes = 1, int64(16*halo)
					}
					if rank != root {
						msgs, bytes = msgs+1, bytes+int64(16*bpr)
					}
					segCalls := int64(0)
					if rank == root {
						segCalls = 1
					}
					st := rec.Snapshot()
					if st.Comm.Messages != msgs || st.Comm.Bytes != bytes {
						t.Errorf("%s: rank %d booked %d messages of %d B, want %d of %d B",
							name, rank, st.Comm.Messages, st.Comm.Bytes, msgs, bytes)
					}
					if c, sf := st.Stages[instrument.StageConvolve].Calls, st.Stages[instrument.StageSegmentFFT].Calls; c != 1 || sf != segCalls {
						t.Errorf("%s: rank %d booked %d convolve and %d segment_fft calls, want 1 and %d",
							name, rank, c, sf, segCalls)
					}
				}
			}
			// No all-to-all at all: just halo sends and a gather.
			if a := w.Stats().Alltoalls; a != 0 {
				t.Errorf("R=%d: segment queries used %d all-to-alls, want 0", ranks, a)
			}
		}
	}

	// Error paths.
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := mpi.NewWorld(4)
	err = w.Run(func(c *mpi.Comm) error {
		_, err := pl.RunDistributedSegment(c, make([]complex128, p.N/4), 99, 0)
		return err
	})
	if !errors.Is(err, ErrSegmentRange) {
		t.Errorf("segment 99: %v, want ErrSegmentRange", err)
	}
	w, _ = mpi.NewWorld(4)
	err = w.Run(func(c *mpi.Comm) error {
		_, err := pl.RunDistributedSegment(c, make([]complex128, p.N/4), 0, 4)
		return err
	})
	if !errors.Is(err, ErrPlanMismatch) {
		t.Errorf("root 4 of 4 ranks: %v, want ErrPlanMismatch", err)
	}
}

// countdownCtx is a context whose Err reports context.Canceled from its
// k-th call on, so a test picks the cancelled stage deterministically.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func newCountdownCtx(k int) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.left.Store(int64(k))
	return c
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) <= 0 {
		return context.Canceled
	}
	return nil
}

// TestRunDistributedCancelled cancels rank 0 at each of its context
// checks in turn, k = 1, 2, … until a run completes. The cancelled rank
// returns context.Canceled and releases no workspace; every other rank
// returns, without hanging, nil, a *DegradedError or a Fault. The node
// transform is held to the same at R = 1, no goroutine outlives the
// runs, and an already-cancelled context takes no workspace off the free
// list.
func TestRunDistributedCancelled(t *testing.T) {
	base := runtime.NumGoroutine()
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(codedParams.N, 41)
	var victimReleased atomic.Bool
	pl.distOnRelease = func(ws *distWorkspace) {
		if ws.exec.rank == 0 {
			victimReleased.Store(true)
		}
	}
	// cancelAt runs one transform with rank 0 on newCountdownCtx(k) and
	// reports whether rank 0 was cancelled.
	cancelAt := func(name string, k int, run func(ctx context.Context) error) bool {
		victimReleased.Store(false)
		done := make(chan error, 1)
		go func() { done <- run(newCountdownCtx(k)) }()
		select {
		case err := <-done:
			switch {
			case err == nil:
				return false
			case !errors.Is(err, context.Canceled):
				t.Fatalf("%s k=%d: rank 0 returned %v, want context.Canceled", name, k, err)
			case victimReleased.Load():
				t.Errorf("%s k=%d: the cancelled rank released its workspace", name, k)
			}
			return true
		case <-time.After(30 * time.Second):
			t.Fatalf("%s k=%d: the run hangs", name, k)
		}
		return false
	}
	// sweep raises k until a run completes; cancellation must have hit at
	// least newDistExec, the producer and the check before phase 4.
	sweep := func(name string, run func(ctx context.Context) error) {
		k := 1
		for ; cancelAt(name, k, run); k++ {
			if k == 64 {
				t.Fatalf("%s: still cancelled after %d context checks", name, k)
			}
		}
		if k < 4 {
			t.Errorf("%s: completed at k=%d, want at least three cancellable checks", name, k)
		}
	}

	for _, r := range []int{2, 4} {
		nLocal := codedParams.N / r
		for _, v := range []struct {
			name string
			opts []DistOption
		}{{"flat", nil}, {"async", []DistOption{WithAsyncWindow(2)}}, {"coded", []DistOption{WithCoding(1)}}} {
			name := fmt.Sprintf("R=%d %s", r, v.name)
			sweep(name, func(ctx context.Context) error {
				w, err := mpi.NewWorld(r)
				if err != nil {
					return err
				}
				errs := make([]error, r)
				_ = w.Run(func(c *mpi.Comm) error {
					k, rctx := c.Rank(), context.Background()
					if k == 0 {
						rctx = ctx
					}
					_, errs[k] = pl.RunDistributed(rctx, c, make([]complex128, nLocal), src[k*nLocal:(k+1)*nLocal], v.opts...)
					return errs[k] // a failed rank aborts the world, which wakes its peers
				})
				for k := 1; k < r; k++ {
					var deg *DegradedError
					var fault Fault
					if err := errs[k]; err != nil && !errors.As(err, &deg) && !errors.As(err, &fault) {
						t.Errorf("%s: rank %d returned %v, want nil, *DegradedError or a Fault", name, k, err)
					}
				}
				return errs[0]
			})
		}
	}
	dst := make([]complex128, codedParams.N)
	sweep("node", func(ctx context.Context) error { return pl.TransformContext(ctx, dst, src) })

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	free := pl.distFree.Len()
	if err := pl.TransformContext(cancelled, dst, src); !errors.Is(err, context.Canceled) {
		t.Errorf("node run on a cancelled context returned %v", err)
	}
	const r = 2
	w, err := mpi.NewWorld(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(c *mpi.Comm) error {
		k := c.Rank()
		_, err := pl.RunDistributed(cancelled, c, make([]complex128, codedParams.N/r), src[:codedParams.N/r], WithCoding(1))
		if !errors.Is(err, context.Canceled) {
			return fmt.Errorf("rank %d on a cancelled context returned %v", k, err)
		}
		return nil
	}); err != nil {
		t.Error(err)
	}
	if n := pl.distFree.Len(); n != free {
		t.Errorf("runs on a cancelled context left %d workspaces on the free list, want %d", n, free)
	}

	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > base; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the cancelled runs, %d before", runtime.NumGoroutine(), base)
		}
	}
}
