// Async-exchange e2e: the streamed all-to-all over real TCP, with wire
// cost injected by faultnet. The two halves of the streaming contract
// are under test here: with a window the transform must get measurably
// faster when the wire is slow (overlap hides wire time behind
// convolution) while staying bit-identical to the blocking exchange,
// and rank death mid-stream must surface as typed errors within the
// deadline bounds — the plain chaos invariant, on the async path.
package mpinet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"soifft/internal/core"
	"soifft/internal/faultnet"
	"soifft/internal/fft"
	"soifft/internal/signal"
)

// runAsyncTimed executes the distributed transform on every rank and
// returns per-rank outputs and times plus the wall time of the whole
// world.
func runAsyncTimed(t *testing.T, procs []*Proc, pl *core.Plan, src []complex128,
	budget time.Duration, opts ...core.DistOption) ([]complex128, []core.DistributedTimes, time.Duration) {
	t.Helper()
	nLocal := len(src) / len(procs)
	got := make([]complex128, len(src))
	dts := make([]core.DistributedTimes, len(procs))
	errs, elapsed := runRanks(t, procs, budget, func(p *Proc) error {
		rank := p.Rank()
		dt, err := pl.RunDistributed(context.Background(), p,
			got[rank*nLocal:(rank+1)*nLocal], src[rank*nLocal:(rank+1)*nLocal], opts...)
		dts[rank] = dt
		return err
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	return got, dts, elapsed
}

// TestAsyncOverlapHidesWireTime is the streaming tentpole's acceptance:
// throttle every link so the exchange wire time matches the measured
// convolution time, and the windowed exchange must cut the end-to-end
// wall by at least 20% versus the blocking exchange on the identically
// throttled mesh — with bit-identical spectra, and with the visible
// Exchange stage time (the un-hidden remainder) strictly smaller.
func TestAsyncOverlapHidesWireTime(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock overlap measurement")
	}
	// Two ranks keep the goroutine count low enough that scheduler noise
	// on a small CI box does not swamp the overlap signal; one link each
	// way is the cleanest wire to throttle. Workers=1 and a deep filter
	// make convolution the dominant local stage, which is what the
	// overlap can hide wire time behind. P=4 keeps it dominant on every
	// build: only multiples of 8 run the assembly kernel, which is four
	// times faster and, unlike the Go stages around it, not slowed by the
	// race detector.
	const n, ranks = 1 << 18, 2
	pl, err := core.NewPlan(core.Params{N: n, P: 4, Mu: 5, Nu: 4, B: 1024, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 41)
	want, err := fft.Forward(src)
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1, clean mesh: measure the compute wall we can hide behind.
	clean := mesh(t, ranks)
	refOut, cleanDts, cleanWall := runAsyncTimed(t, clean, pl, src, 30*time.Second)
	if e := signal.RelErrL2(refOut, want); e > 1e-8 {
		t.Fatalf("clean run wrong: rel err %.3e", e)
	}
	var conv time.Duration
	for _, dt := range cleanDts {
		if dt.Convolve > conv {
			conv = dt.Convolve
		}
	}
	if conv <= 0 {
		t.Fatal("no convolution time measured")
	}

	// Throttle every link so draining one rank's exchange payload takes
	// about 1.5 clean-run walls: wire ≳ compute is where a blocking
	// exchange hurts most, and the slack above 1.0 keeps the comparison
	// decisive even when the calibration run lands on the fast side.
	nPrime := n / 4 * 5
	perLinkBytes := int64(nPrime) * 16 / int64(ranks*ranks)
	plan := faultnet.Plan{Seed: 1, BandwidthBps: float64(perLinkBytes) / (1.5 * cleanWall.Seconds())}
	throttled := func() []*Proc {
		return chaosMesh(t, ranks, 60*time.Second, func(self, peer int, c net.Conn) net.Conn {
			return plan.Conn(c, faultnet.LinkID(self, peer))
		})
	}

	// Wall time on a small shared box is noisy (one bad scheduler burst
	// shifts either side by tens of ms), so the timing claim gets up to
	// three attempts and passes on the first decisive one; correctness
	// (bit-identity, visible-exchange shrink) is asserted on every
	// attempt. Three straight misses means the overlap is really gone.
	const attempts = 3
	var blockWall, asyncWall time.Duration
	for attempt := 0; attempt < attempts; attempt++ {
		var blockOut, asyncOut []complex128
		var blockDts, asyncDts []core.DistributedTimes
		blockOut, blockDts, blockWall = runAsyncTimed(t, throttled(), pl, src, 90*time.Second)
		asyncOut, asyncDts, asyncWall = runAsyncTimed(t, throttled(), pl, src, 90*time.Second,
			core.WithAsyncWindow(4))

		if e := signal.MaxAbsErr(asyncOut, blockOut); e != 0 {
			t.Fatalf("async spectrum differs from blocking by %.3e (must be bit-identical)", e)
		}
		var blockExch, asyncExch time.Duration
		for r := 0; r < ranks; r++ {
			if blockDts[r].Exchange > blockExch {
				blockExch = blockDts[r].Exchange
			}
			if asyncDts[r].Exchange > asyncExch {
				asyncExch = asyncDts[r].Exchange
			}
		}
		if asyncExch >= blockExch {
			t.Errorf("visible exchange did not shrink: async %v vs blocking %v", asyncExch, blockExch)
		}
		t.Logf("attempt %d: conv %v; wall blocking %v async %v (%.1f%% saved); visible exchange blocking %v async %v",
			attempt, conv, blockWall, asyncWall,
			100*(1-float64(asyncWall)/float64(blockWall)), blockExch, asyncExch)
		if asyncWall <= blockWall*8/10 {
			return
		}
	}
	t.Errorf("async wall %v not >=20%% below blocking %v in any of %d attempts",
		asyncWall, blockWall, attempts)
}

// TestChaosAsyncRankDeathMidStream runs the windowed exchange under the
// kill-a-link fault families with rank 1 faulty: every run must either
// produce the correct spectrum or fail typed on every affected rank
// within twice the I/O deadline — never a hang, never a silently wrong
// spectrum, at any window.
func TestChaosAsyncRankDeathMidStream(t *testing.T) {
	const n, ranks, faulty = 2048, 4, 1
	const ioT = time.Second
	pl, err := core.NewPlan(core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: 48})
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 13)
	want := make([]complex128, n)
	fft.Direct(want, src)
	nLocal := n / ranks

	scenarios := []struct {
		name string
		plan faultnet.Plan
	}{
		{"reset", faultnet.Plan{ResetProb: 0.4, After: 2}},
		{"hang", faultnet.Plan{HangProb: 0.4, After: 2}},
		{"corrupt", faultnet.Plan{CorruptProb: 0.4, After: 2}},
	}
	for _, sc := range scenarios {
		for _, window := range []int{1, 3} {
			for seed := int64(1); seed <= 2; seed++ {
				sc, window, seed := sc, window, seed
				t.Run(fmt.Sprintf("%s/w%d/seed%d", sc.name, window, seed), func(t *testing.T) {
					plan := sc.plan
					plan.Seed = seed
					procs := chaosMesh(t, ranks, ioT, func(self, peer int, c net.Conn) net.Conn {
						if self != faulty {
							return c
						}
						return plan.Conn(c, faultnet.LinkID(self, peer))
					})
					got := make([]complex128, n)
					errs, elapsed := runRanks(t, procs, 2*ioT, func(p *Proc) error {
						out := got[p.Rank()*nLocal : (p.Rank()+1)*nLocal]
						_, err := pl.RunDistributed(context.Background(), p, out,
							src[p.Rank()*nLocal:(p.Rank()+1)*nLocal],
							core.WithAsyncWindow(window))
						return err
					})
					failed := false
					for r, err := range errs {
						if err == nil {
							continue
						}
						failed = true
						var te *TransportError
						var fault core.Fault
						if !errors.As(err, &te) || !errors.As(err, &fault) {
							t.Errorf("rank %d returned untyped error %T: %v", r, err, err)
						}
					}
					if !failed {
						if e := signal.RelErrL2(got, want); e > 1e-8 {
							t.Errorf("fault-free streamed run produced wrong spectrum: rel err %.3e", e)
						}
						return
					}
					if limit := 2*ioT + 2*time.Second; elapsed > limit {
						t.Errorf("faulted streamed run took %v, over the %v bound", elapsed, limit)
					}
				})
			}
		}
	}
}

// TestChaosAsyncCodedDeathMidStream: coding composes with streaming
// under rank death. Kill each rank in turn right after its streamed
// tiles and parity flushed; every survivor must finish with the
// bit-exact spectrum and a DegradedError naming the victim — the same
// contract the blocking coded exchange guarantees.
func TestChaosAsyncCodedDeathMidStream(t *testing.T) {
	const ioT = time.Second
	pl, src, want := codedChaosPlan(t)
	nLocal := len(src) / codedRanks
	for victim := 0; victim < codedRanks; victim++ {
		victim := victim
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			procs := chaosMesh(t, codedRanks, ioT, nil)
			killAtExchange(t, procs, victim)
			outs := make([][]complex128, codedRanks)
			degs := make([]*core.DegradedError, codedRanks)
			errs, elapsed := runRanks(t, procs, 2*ioT, func(p *Proc) error {
				rank := p.Rank()
				out := make([]complex128, nLocal)
				_, err := pl.RunDistributed(context.Background(), p, out,
					src[rank*nLocal:(rank+1)*nLocal],
					core.WithCoding(1), core.WithAsyncWindow(2))
				outs[rank] = out
				if rank == victim {
					return err
				}
				var deg *core.DegradedError
				if !errors.As(err, &deg) {
					return fmt.Errorf("transform: %w", err)
				}
				degs[rank] = deg
				return nil
			})
			for rank, err := range errs {
				if rank == victim {
					if !errors.Is(err, errChaosKill) {
						t.Errorf("victim: err %v, want the failpoint kill", err)
					}
					continue
				}
				if err != nil {
					t.Errorf("survivor %d: %v", rank, err)
					continue
				}
				deg := degs[rank]
				if len(deg.ReconstructedRanks) != 1 || deg.ReconstructedRanks[0] != victim {
					t.Errorf("survivor %d: reconstructed %v, want [%d]", rank, deg.ReconstructedRanks, victim)
				}
				if e := signal.MaxAbsErr(outs[rank], want[rank*nLocal:(rank+1)*nLocal]); e != 0 {
					t.Errorf("survivor %d: streamed degraded block differs by %.3e (must be bit-exact)", rank, e)
				}
			}
			if limit := 2*ioT + 2*time.Second; elapsed > limit {
				t.Errorf("degraded streamed run took %v, over the %v bound", elapsed, limit)
			}
		})
	}
}
