package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"soifft/internal/erasure"
	"soifft/internal/exch"
	"soifft/internal/instrument"
	"soifft/internal/mpi"
	"soifft/internal/signal"
	"soifft/internal/trace"
)

// codedParams is a shape with several segments and blocks per rank on 4
// ranks, so takeover reassembles a non-trivial column.
var codedParams = Params{N: 1024, P: 8, Mu: 5, Nu: 4, B: 32, Workers: 1}

// runSOICoded executes the coded transform over r in-process ranks and
// returns each rank's (output block, error).
func runSOICoded(t *testing.T, pl *Plan, src []complex128, r, m int,
	wrap func(c *mpi.Comm) Comm) ([][]complex128, []error) {
	t.Helper()
	w, err := mpi.NewWorld(r)
	if err != nil {
		t.Fatal(err)
	}
	nLocal := len(src) / r
	outs := make([][]complex128, r)
	errs := make([]error, r)
	if err := w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		var cc Comm = c
		if wrap != nil {
			cc = wrap(c)
		}
		out := make([]complex128, nLocal)
		_, err := pl.RunDistributed(context.Background(), cc, out, src[rank*nLocal:(rank+1)*nLocal], WithCoding(m))
		outs[rank], errs[rank] = out, err
		return nil // judge per-rank errors in the caller, not via world abort
	}); err != nil {
		t.Fatalf("world: %v", err)
	}
	return outs, errs
}

func TestCodedMatchesUncodedBitExact(t *testing.T) {
	// With no failures the coded exchange must be invisible: same bits
	// out as the plain driver, for every parity budget.
	const r = 4
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(codedParams.N, 77)
	ref, _, _ := runSOIDistributed(t, codedParams, r, 77)
	for m := 0; m <= r-1; m++ {
		outs, errs := runSOICoded(t, pl, src, r, m, nil)
		for rank := 0; rank < r; rank++ {
			if errs[rank] != nil {
				t.Fatalf("m=%d rank %d: %v", m, rank, errs[rank])
			}
			nLocal := codedParams.N / r
			if e := signal.MaxAbsErr(outs[rank], ref[rank*nLocal:(rank+1)*nLocal]); e != 0 {
				t.Errorf("m=%d rank %d: coded differs from uncoded by %.3e", m, rank, e)
			}
		}
	}
}

func TestCodedWireOverhead(t *testing.T) {
	// Acceptance bound: coded wire bytes ≤ (1 + m/R + ε)·uncoded, with
	// the uncoded volume checked against the analytic
	// 16·(1+β)·N·(R−1)/R model, and the parity surcharge exactly
	// R·m·chunk·16.
	const r, m = 4, 1
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	rec := instrument.New(instrument.LevelCounters)
	pl.SetRecorder(rec)
	defer pl.SetRecorder(nil)
	src := signal.Random(codedParams.N, 13)
	_, errs := runSOICoded(t, pl, src, r, m, nil)
	for rank, e := range errs {
		if e != nil {
			t.Fatalf("rank %d: %v", rank, e)
		}
	}
	s := rec.Snapshot().Comm
	nPrime := codedParams.N / codedParams.Nu * codedParams.Mu
	analytic := int64(16 * nPrime * (r - 1) / r) // 16·(1+β)·N·(R−1)/R
	if s.AlltoallBytes != analytic {
		t.Errorf("data bytes = %d, want analytic %d", s.AlltoallBytes, analytic)
	}
	chunk := pl.MPrime() / r * (codedParams.P / r)
	if want := int64(r * m * chunk * 16); s.ParityBytes != want {
		t.Errorf("parity bytes = %d, want exactly R·m·chunk·16 = %d", s.ParityBytes, want)
	}
	bound := float64(analytic) * (1 + float64(m)/float64(r) + 0.1)
	if total := float64(s.AlltoallBytes + s.ParityBytes); total > bound {
		t.Errorf("coded wire bytes %.0f exceed (1+m/R+ε) bound %.0f", total, bound)
	}
	if s.Alltoalls != 1 {
		t.Errorf("coded mode used %d all-to-alls, want 1", s.Alltoalls)
	}
	if s.Reconstructions != 0 || s.DegradedTransforms != 0 || s.RecoveryBytes != 0 {
		t.Errorf("clean run booked recovery activity: %+v", s)
	}
}

// TestParityMatchesEncode: the parity produce folds tile by tile is, bit
// for bit, erasure.Encode over the run's packed send buffer, for every
// parity budget, window and worker count, forward and inverse. The shape
// puts two tiles inside window 0's chunk (R = 2), so direct-scatter tiles
// start past a chunk's first row; with two workers parfor splits each
// compute tile and the halves fold disjoint cells of every share
// concurrently.
func TestParityMatchesEncode(t *testing.T) {
	p := Params{N: 18432, P: 24, Mu: 5, Nu: 4, B: 32}
	src := signal.Random(p.N, 47)
	for workers := 1; workers <= 2; workers++ {
		p.Workers = workers
		pl, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var cell string
		checked := 0
		pl.distOnRelease = func(ws *distWorkspace) {
			chunk := len(ws.send) / ws.r
			m := len(ws.parity) / chunk
			code, err := erasure.New(ws.r, m)
			if err != nil {
				t.Error(err)
				return
			}
			data, want := make([][]byte, ws.r), make([][]byte, m)
			for d := range data {
				data[d] = erasure.ComplexToBytes(nil, ws.send[d*chunk:(d+1)*chunk])
			}
			for i := range want {
				want[i] = make([]byte, 16*chunk)
			}
			if err := code.Encode(data, want); err != nil {
				t.Error(err)
				return
			}
			for i := range want {
				if !bytes.Equal(erasure.ComplexToBytes(nil, ws.parity[i*chunk:(i+1)*chunk]), want[i]) {
					t.Errorf("%s rank %d: parity share %d differs from Encode over send", cell, ws.exec.rank, i)
				}
			}
			mu.Lock()
			checked++
			mu.Unlock()
		}
		for _, r := range []int{2, 3, 4} {
			nLocal := p.N / r
			for m := 1; m < r; m++ {
				for _, win := range []int{0, 1, r} {
					for _, inverse := range []bool{false, true} {
						cell = fmt.Sprintf("R=%d m=%d window=%d workers=%d inverse=%v", r, m, win, workers, inverse)
						run := pl.RunDistributed
						if inverse {
							run = pl.RunDistributedInverse
						}
						w, err := mpi.NewWorld(r)
						if err != nil {
							t.Fatal(err)
						}
						checked = 0
						err = w.Run(func(c *mpi.Comm) error {
							k := c.Rank()
							_, err := run(context.Background(), c, make([]complex128, nLocal), src[k*nLocal:(k+1)*nLocal],
								WithCoding(m), WithAsyncWindow(win))
							return err
						})
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						if checked != r {
							t.Fatalf("%s: %d ranks' parity checked, want %d", cell, checked, r)
						}
					}
				}
			}
		}
	}
}

func TestValidateCoded(t *testing.T) {
	for _, c := range []struct{ r, m int }{{4, 0}, {4, 3}, {8, 1}, {1, 0}, {48, 4}} {
		if err := ValidateCoded(c.r, c.m); err != nil {
			t.Errorf("ValidateCoded(%d,%d): unexpected error %v", c.r, c.m, err)
		}
	}
	for _, c := range []struct{ r, m int }{{0, 0}, {-2, 1}, {4, -1}, {4, 4}, {48, 5}, {52, 1}} {
		err := ValidateCoded(c.r, c.m)
		if !errors.Is(err, ErrPlanMismatch) {
			t.Errorf("ValidateCoded(%d,%d): err %v, want ErrPlanMismatch", c.r, c.m, err)
		}
	}
}

// linkFault is a typed transport fault the death-simulating wrapper
// raises for links to a dead peer.
type linkFault struct{ peer int }

func (f *linkFault) Error() string { return fmt.Sprintf("test: peer %d is dead", f.peer) }
func (f *linkFault) CommFault()    {}

// postFlushDeath simulates the headline failure mode over the
// in-process runtime: the victim's exchange frames reached their peers
// (a graceful transport flushes on close), but the victim is gone by
// the view round, so every control-protocol frame to or from it fails
// typed. Combined with a CodedExchangeFailpoint that stops the victim
// rank, this reproduces mid-transform death deterministically.
type postFlushDeath struct {
	*mpi.Comm
	victims map[int]bool
}

func (c *postFlushDeath) Send(to, tag int, data []complex128) error {
	if c.victims[to] && tag <= exch.TagCodedView {
		return &linkFault{peer: to}
	}
	return c.Comm.Send(to, tag, data)
}

func (c *postFlushDeath) RecvC(from, tag int) ([]complex128, error) {
	if c.victims[from] && tag <= exch.TagCodedView {
		return nil, &linkFault{peer: from}
	}
	return c.Comm.RecvC(from, tag)
}

var errFailpointKill = errors.New("test: failpoint kill")

// runSOICodedWithDeaths kills the given ranks at the post-fan-out
// failpoint and runs everyone else through the wrapper above.
func runSOICodedWithDeaths(t *testing.T, pl *Plan, src []complex128, r, m int, victims ...int) ([][]complex128, []error) {
	t.Helper()
	vset := make(map[int]bool, len(victims))
	for _, v := range victims {
		vset[v] = true
	}
	prev := CodedExchangeFailpoint
	CodedExchangeFailpoint = func(rank int) error {
		if vset[rank] {
			return errFailpointKill
		}
		return nil
	}
	defer func() { CodedExchangeFailpoint = prev }()
	return runSOICoded(t, pl, src, r, m, func(c *mpi.Comm) Comm {
		return &postFlushDeath{Comm: c, victims: vset}
	})
}

func TestCodedSurvivesAnySingleDeath(t *testing.T) {
	// m=1 headline guarantee: kill any one rank after its sends flushed;
	// every survivor finishes bit-exact and reports a DegradedError
	// naming the victim, and the coordinator's takeover block for the
	// victim matches the uncoded run bit for bit.
	const r, m = 4, 1
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(codedParams.N, 42)
	ref, _, _ := runSOIDistributed(t, codedParams, r, 42)
	nLocal := codedParams.N / r
	for victim := 0; victim < r; victim++ {
		outs, errs := runSOICodedWithDeaths(t, pl, src, r, m, victim)
		wantCoord := 0
		if victim == 0 {
			wantCoord = 1
		}
		for rank := 0; rank < r; rank++ {
			if rank == victim {
				if !errors.Is(errs[rank], errFailpointKill) {
					t.Errorf("victim %d: err %v, want failpoint kill", victim, errs[rank])
				}
				continue
			}
			var deg *DegradedError
			if !errors.As(errs[rank], &deg) {
				t.Fatalf("victim %d rank %d: err %v, want DegradedError", victim, rank, errs[rank])
			}
			if len(deg.ReconstructedRanks) != 1 || deg.ReconstructedRanks[0] != victim {
				t.Errorf("victim %d rank %d: reconstructed %v", victim, rank, deg.ReconstructedRanks)
			}
			if deg.Coordinator != wantCoord {
				t.Errorf("victim %d rank %d: coordinator %d, want %d", victim, rank, deg.Coordinator, wantCoord)
			}
			if e := signal.MaxAbsErr(outs[rank], ref[rank*nLocal:(rank+1)*nLocal]); e != 0 {
				t.Errorf("victim %d rank %d: degraded output differs by %.3e", victim, rank, e)
			}
			if rank == wantCoord {
				if e := signal.MaxAbsErr(deg.TakenOver[victim], ref[victim*nLocal:(victim+1)*nLocal]); e != 0 {
					t.Errorf("victim %d: taken-over block differs by %.3e", victim, e)
				}
			} else if len(deg.TakenOver) != 0 {
				t.Errorf("victim %d rank %d: non-coordinator has TakenOver blocks", victim, rank)
			}
		}
	}
}

func TestCodedDoubleDeathWithSingleParityFailsTyped(t *testing.T) {
	// Satellite: two dead ranks against m=1 must fail with a typed error
	// naming both dead peers — on every survivor, never a wrong answer.
	const r, m = 4, 1
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(codedParams.N, 7)
	_, errs := runSOICodedWithDeaths(t, pl, src, r, m, 1, 2)
	for _, rank := range []int{0, 3} {
		var loss *UnrecoverableLossError
		if !errors.As(errs[rank], &loss) {
			t.Fatalf("rank %d: err %v, want UnrecoverableLossError", rank, errs[rank])
		}
		if len(loss.DeadRanks) != 2 || loss.DeadRanks[0] != 1 || loss.DeadRanks[1] != 2 {
			t.Errorf("rank %d: dead ranks %v, want [1 2]", rank, loss.DeadRanks)
		}
		if loss.Parity != m {
			t.Errorf("rank %d: parity %d, want %d", rank, loss.Parity, m)
		}
	}
}

func TestCodedDeathWithoutParityFailsTyped(t *testing.T) {
	// m=0 coded mode detects deaths but has nothing to repair with: any
	// death is a typed loss naming the victim.
	const r = 4
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(codedParams.N, 8)
	_, errs := runSOICodedWithDeaths(t, pl, src, r, 0, 2)
	for _, rank := range []int{0, 1, 3} {
		var loss *UnrecoverableLossError
		if !errors.As(errs[rank], &loss) {
			t.Fatalf("rank %d: err %v, want UnrecoverableLossError", rank, errs[rank])
		}
		if len(loss.DeadRanks) != 1 || loss.DeadRanks[0] != 2 {
			t.Errorf("rank %d: dead ranks %v, want [2]", rank, loss.DeadRanks)
		}
	}
}

func TestCodedParityHolderOverlapFailsTyped(t *testing.T) {
	// m=2 on 4 ranks cannot survive a double death: each victim's
	// codeword loses its self share, the other victim's data share, and
	// (since parity shares sit on the next m ranks) at least one parity
	// share — 3 erasures against a budget of 2. The decode-time share
	// census must catch this and fail typed, never guess.
	const r, m = 4, 2
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(codedParams.N, 17)
	_, errs := runSOICodedWithDeaths(t, pl, src, r, m, 1, 3)
	for _, rank := range []int{0, 2} {
		var loss *UnrecoverableLossError
		if !errors.As(errs[rank], &loss) {
			t.Fatalf("rank %d: err %v, want UnrecoverableLossError", rank, errs[rank])
		}
	}
	// The coordinator (rank 0) saw the share census come up short; the
	// other survivor learned the verdict from the outcome round.
	if !errors.Is(errs[0], erasure.ErrTooFewShares) {
		t.Errorf("coordinator err %v, want ErrTooFewShares cause", errs[0])
	}
}

func TestCodedTripleParitySurvivesDoubleDeath(t *testing.T) {
	// m=3 on 4 ranks survives any double death: a victim codeword's
	// worst case loses its self share, the other victim's data share,
	// and one parity share — exactly the m=3 budget, leaving R shares.
	const r, m = 4, 3
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(codedParams.N, 99)
	ref, _, _ := runSOIDistributed(t, codedParams, r, 99)
	nLocal := codedParams.N / r
	outs, errs := runSOICodedWithDeaths(t, pl, src, r, m, 1, 3)
	for _, rank := range []int{0, 2} {
		var deg *DegradedError
		if !errors.As(errs[rank], &deg) {
			t.Fatalf("rank %d: err %v, want DegradedError", rank, errs[rank])
		}
		if len(deg.ReconstructedRanks) != 2 || deg.ReconstructedRanks[0] != 1 || deg.ReconstructedRanks[1] != 3 {
			t.Errorf("rank %d: reconstructed %v, want [1 3]", rank, deg.ReconstructedRanks)
		}
		if e := signal.MaxAbsErr(outs[rank], ref[rank*nLocal:(rank+1)*nLocal]); e != 0 {
			t.Errorf("rank %d: degraded output differs by %.3e", rank, e)
		}
		if rank == 0 {
			for _, v := range []int{1, 3} {
				if e := signal.MaxAbsErr(deg.TakenOver[v], ref[v*nLocal:(v+1)*nLocal]); e != 0 {
					t.Errorf("taken-over block for %d differs by %.3e", v, e)
				}
			}
		}
	}
}

func TestGatherDegradedRoutesAroundDeadRoot(t *testing.T) {
	// After a degraded run the gather lands at root when root survived,
	// and at the coordinator when root was the victim; either way the
	// assembled spectrum matches the uncoded gather bit for bit.
	const r, m = 4, 1
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(codedParams.N, 23)
	ref, _, _ := runSOIDistributed(t, codedParams, r, 23)
	nLocal := codedParams.N / r
	for _, tc := range []struct{ victim, root, wantAt int }{
		{victim: 2, root: 0, wantAt: 0}, // root survives
		{victim: 0, root: 0, wantAt: 1}, // root dies → coordinator
	} {
		vset := map[int]bool{tc.victim: true}
		prev := CodedExchangeFailpoint
		CodedExchangeFailpoint = func(rank int) error {
			if vset[rank] {
				return errFailpointKill
			}
			return nil
		}
		fulls := make([][]complex128, r)
		w, err := mpi.NewWorld(r)
		if err != nil {
			t.Fatal(err)
		}
		runErr := w.Run(func(c *mpi.Comm) error {
			rank := c.Rank()
			cc := &postFlushDeath{Comm: c, victims: vset}
			out := make([]complex128, nLocal)
			_, err := pl.RunDistributed(context.Background(), cc, out, src[rank*nLocal:(rank+1)*nLocal], WithCoding(m))
			if rank == tc.victim {
				return nil // dead rank does not join the gather
			}
			var deg *DegradedError
			if !errors.As(err, &deg) {
				return fmt.Errorf("rank %d: err %v, want DegradedError", rank, err)
			}
			full, at, err := GatherDegraded(cc, tc.root, out, deg)
			if err != nil {
				return fmt.Errorf("rank %d: GatherDegraded: %w", rank, err)
			}
			if at != tc.wantAt {
				return fmt.Errorf("rank %d: gathered at %d, want %d", rank, at, tc.wantAt)
			}
			fulls[rank] = full
			return nil
		})
		CodedExchangeFailpoint = prev
		if runErr != nil {
			t.Fatalf("victim %d: %v", tc.victim, runErr)
		}
		for rank := 0; rank < r; rank++ {
			if rank == tc.victim {
				continue
			}
			if rank != tc.wantAt {
				if fulls[rank] != nil {
					t.Errorf("victim %d: rank %d received the gather, want only rank %d", tc.victim, rank, tc.wantAt)
				}
				continue
			}
			if e := signal.MaxAbsErr(fulls[rank], ref); e != 0 {
				t.Errorf("victim %d: gathered spectrum differs by %.3e", tc.victim, e)
			}
		}
	}
}

// TestCodedEpilogueBookedAsExchange: the parity fan-out, the failpoint
// after it and the detection rounds run inside the exchange stage. A
// failpoint that sleeps on rank 0 must show in rank 0's
// DistributedTimes.Exchange and in its exchange trace span at every
// parity budget and window — a lower bound the sleep makes
// deterministic, not a wall-clock threshold.
func TestCodedEpilogueBookedAsExchange(t *testing.T) {
	const r, nap = 4, 30 * time.Millisecond
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	prev := CodedExchangeFailpoint
	CodedExchangeFailpoint = func(rank int) error {
		if rank == 0 {
			time.Sleep(nap)
		}
		return nil
	}
	defer func() { CodedExchangeFailpoint = prev }()
	src := signal.Random(codedParams.N, 31)
	nLocal := codedParams.N / r
	for _, m := range []int{0, 1} {
		for _, window := range []int{0, 2} {
			w, err := mpi.NewWorld(r)
			if err != nil {
				t.Fatal(err)
			}
			tr := trace.New(1 << 10)
			var exchange time.Duration
			if err := w.Run(func(c *mpi.Comm) error {
				k, ctx := c.Rank(), context.Background()
				if k == 0 {
					ctx = trace.WithTracer(ctx, tr)
				}
				dt, err := pl.RunDistributed(ctx, c, make([]complex128, nLocal),
					src[k*nLocal:(k+1)*nLocal], WithCoding(m), WithAsyncWindow(window))
				if k == 0 {
					exchange = dt.Exchange
				}
				return err
			}); err != nil {
				t.Fatalf("m=%d window=%d: %v", m, window, err)
			}
			if exchange < nap {
				t.Errorf("m=%d window=%d: rank 0 books %v as exchange, want at least the failpoint's %v", m, window, exchange, nap)
			}
			var begin, span int64
			for _, ev := range tr.Snapshot() {
				if ev.Name != instrument.StageExchange.String() {
					continue
				}
				if ev.Kind == trace.KindBegin {
					begin = ev.TS
				} else if ev.Kind == trace.KindEnd {
					span = ev.TS - begin
				}
			}
			if time.Duration(span) < nap {
				t.Errorf("m=%d window=%d: rank 0's exchange span lasts %v, want at least the failpoint's %v", m, window, time.Duration(span), nap)
			}
		}
	}
}
