package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"soifft/internal/exch"
	"soifft/internal/instrument"
	"soifft/internal/mpi"
	"soifft/internal/mpinet"
	"soifft/internal/signal"
)

// streamParams has several convolution blocks and segments per rank on 4
// ranks, so the tile schedule is non-trivial at every window under test.
var streamParams = Params{N: 2048, P: 8, Mu: 5, Nu: 4, B: 32, Workers: 1}

// TestAsyncWindowBitIdentity: the streamed exchange re-orders pure data
// movement only — for every window the spectrum must match the blocking
// exchange bit for bit, with the same single-all-to-all accounting and
// the same analytic 16·(1+β)·N·(R−1)/R wire volume.
func TestAsyncWindowBitIdentity(t *testing.T) {
	const r, seed = 4, 301
	ref, _, refStats := runSOIDistributed(t, streamParams, r, seed)
	nPrime := streamParams.N / streamParams.Nu * streamParams.Mu
	wantBytes := int64(nPrime * 16 * (r - 1) / r)
	if refStats.AlltoallBytes != wantBytes {
		t.Fatalf("blocking volume %d, want analytic %d", refStats.AlltoallBytes, wantBytes)
	}
	for _, w := range []int{1, 2, r} {
		got, _, stats := runSOIDistributed(t, streamParams, r, seed, WithAsyncWindow(w))
		if e := signal.MaxAbsErr(got, ref); e != 0 {
			t.Errorf("window %d: streamed differs from blocking by %.3e", w, e)
		}
		if stats.Alltoalls != 1 {
			t.Errorf("window %d: %d all-to-alls, want exactly 1", w, stats.Alltoalls)
		}
		if stats.AlltoallBytes != wantBytes {
			t.Errorf("window %d: exchange carried %d bytes, want analytic %d",
				w, stats.AlltoallBytes, wantBytes)
		}
	}
}

// TestAsyncStreamRecorderBudget: the chunked frames must count against
// the same analytic exchange budget as the blocking call — one collective
// op, 16·(1+β)·N·(R−1)/R bytes regardless of window — plus a positive
// chunk count only the streamed path produces.
func TestAsyncStreamRecorderBudget(t *testing.T) {
	const r = 4
	pl, err := NewPlan(streamParams)
	if err != nil {
		t.Fatal(err)
	}
	rec := instrument.New(instrument.LevelTimers)
	src := signal.Random(streamParams.N, 17)
	got := make([]complex128, streamParams.N)
	w, err := mpi.NewWorld(r)
	if err != nil {
		t.Fatal(err)
	}
	nLocal := streamParams.N / r
	err = w.Run(func(c *mpi.Comm) error {
		_, err := pl.RunDistributed(context.Background(), c,
			got[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			src[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			WithAsyncWindow(2), WithRecorder(rec))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	nPrime := streamParams.N / streamParams.Nu * streamParams.Mu
	wantBytes := int64(nPrime * 16 * (r - 1) / r)
	if snap.Comm.AlltoallBytes != wantBytes {
		t.Errorf("recorder all-to-all bytes %d, want analytic %d", snap.Comm.AlltoallBytes, wantBytes)
	}
	if snap.Comm.Alltoalls != 1 {
		t.Errorf("recorder counted %d all-to-all ops, want 1", snap.Comm.Alltoalls)
	}
	if snap.Comm.StreamChunks == 0 {
		t.Error("streamed run recorded zero chunks")
	}
	// Chunks partition the blocking payload: every rank ships T chunks to
	// each of the R−1 remote destinations.
	if snap.Comm.StreamChunks%int64(r*(r-1)) != 0 {
		t.Errorf("chunk count %d not a multiple of R(R-1)=%d", snap.Comm.StreamChunks, r*(r-1))
	}
	if ratio := snap.Comm.OverlapRatio(snap.Stages[instrument.StageExchange].Wall); ratio < 0 || ratio > 1 {
		t.Errorf("overlap ratio %.3f outside [0,1]", ratio)
	}
}

// TestStreamedHaloBytesCounted: the streamed halo goes through the same
// counted Send as the blocking one, so the recorder books the same
// point-to-point bytes — R·(B−1)·P·16, the halo alone — at every window,
// coded or not (the coded protocol's own frames are classified by its
// parity and recovery counters, not as messages).
func TestStreamedHaloBytesCounted(t *testing.T) {
	const r = 4
	pl, err := NewPlan(streamParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(streamParams.N, 17)
	want := int64(r * pl.HaloLen() * 16)
	nLocal := streamParams.N / r
	for _, tc := range []struct {
		name string
		opts []DistOption
	}{
		{"window0", nil},
		{"window2", []DistOption{WithAsyncWindow(2)}},
		{"coded/window0", []DistOption{WithCoding(1)}},
		{"coded/window2", []DistOption{WithCoding(1), WithAsyncWindow(2)}},
	} {
		rec := instrument.New(instrument.LevelCounters)
		w, err := mpi.NewWorld(r)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(c *mpi.Comm) error {
			out := make([]complex128, nLocal)
			_, err := pl.RunDistributed(context.Background(), c, out,
				src[c.Rank()*nLocal:(c.Rank()+1)*nLocal], append(tc.opts, WithRecorder(rec))...)
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := rec.Snapshot().Comm; got.Bytes != want || got.Messages != r {
			t.Errorf("%s: recorder booked %d messages, %d bytes; want %d halo messages, %d bytes",
				tc.name, got.Messages, got.Bytes, r, want)
		}
	}
}

// TestHiddenExchangeFromFirstSend: hidden exchange time is booked from
// the first remote chunk send, not from the stream's open, which
// precedes the halo post and the first tile's convolution. Window 0
// sends each destination's one chunk in a single burst after the last
// row, so it hides nothing; window 2 hides the tiles convolved after its
// first send, which is less than the producer's whole halo and
// convolution time.
func TestHiddenExchangeFromFirstSend(t *testing.T) {
	const r = 2
	pl, err := NewPlan(streamParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(streamParams.N, 23)
	nLocal := streamParams.N / r
	for _, w := range []int{0, 2} {
		rec := instrument.New(instrument.LevelTimers)
		world, err := mpi.NewWorld(r)
		if err != nil {
			t.Fatal(err)
		}
		err = world.Run(func(c *mpi.Comm) error {
			k := c.Rank()
			_, err := pl.RunDistributed(context.Background(), c, make([]complex128, nLocal),
				src[k*nLocal:(k+1)*nLocal], WithAsyncWindow(w), WithRecorder(rec))
			return err
		})
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		snap := rec.Snapshot()
		hidden := snap.Comm.HiddenExchange
		produced := snap.Stages[instrument.StageHalo].Wall + snap.Stages[instrument.StageConvolve].Wall
		switch {
		case w == 0 && hidden != 0:
			t.Errorf("window 0 booked %v hidden exchange, want 0", hidden)
		case w > 0 && (hidden <= 0 || hidden >= produced):
			t.Errorf("window %d booked %v hidden exchange, want in (0, %v): halo plus convolution, less the first tile",
				w, hidden, produced)
		}
	}
}

// truncating shortens every exchange chunk its rank sends to a peer by
// one element, so each arrives the wrong size for its recv slot.
type truncating struct{ Comm }

func (c truncating) StartAlltoallv(o exch.Options) exch.Stream {
	return truncStream{c.Comm.StartAlltoallv(o), c.Rank()}
}

type truncStream struct {
	exch.Stream
	rank int
}

func (s truncStream) Send(dst, idx int, data []complex128) error {
	if dst != s.rank {
		data = data[:len(data)-1]
	}
	return s.Stream.Send(dst, idx, data)
}

// TestStreamWrongSizeChunk pins what a chunk the wrong size for its recv
// slot does, on both transports: the transport fails that source with a
// typed fault. A flat streamed run fails with it on every rank the
// source sent to. A coded run, streamed or blocking, treats the
// source as lost, like a dead link — here beyond the m = 1 budget, since
// every data share of its codeword went — and fail typed naming it.
func TestStreamWrongSizeChunk(t *testing.T) {
	const r, bad = 4, 2
	pl, err := NewPlan(streamParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(streamParams.N, 5)
	nLocal := streamParams.N / r
	transform := func(c Comm, opts []DistOption) error {
		k := c.Rank()
		if k == bad {
			c = truncating{c}
		}
		_, err := pl.RunDistributed(context.Background(), c, make([]complex128, nLocal), src[k*nLocal:(k+1)*nLocal], opts...)
		return err
	}
	transports := map[string]func(t *testing.T, opts []DistOption) []error{
		// The source's coded protocol waits for peers that wrote it off:
		// once the others have their outcome, aborting the world frees it.
		"mpi": func(t *testing.T, opts []DistOption) []error {
			w, err := mpi.NewWorld(r)
			if err != nil {
				t.Fatal(err)
			}
			errs := make([]error, r)
			var others sync.WaitGroup
			others.Add(r - 1)
			_ = w.Run(func(c *mpi.Comm) error {
				errs[c.Rank()] = transform(c, opts)
				if c.Rank() == bad {
					return nil
				}
				others.Done()
				others.Wait()
				return errors.New("test: outcomes recorded")
			})
			return errs
		},
		// On the mesh the source's own I/O deadline frees it.
		"mpinet": func(t *testing.T, opts []DistOption) []error {
			procs := loopbackMesh(t, r)
			for _, p := range procs {
				p.SetIOTimeout(300 * time.Millisecond)
			}
			return onMesh(procs, func(p *mpinet.Proc) error { return transform(p, opts) })
		},
	}
	for name, run := range transports {
		t.Run(name+"/flat", func(t *testing.T) {
			errs := run(t, []DistOption{WithAsyncWindow(2)})
			for k, err := range errs {
				if k == bad {
					continue
				}
				if !errors.As(err, new(Fault)) {
					t.Errorf("rank %d: got %v, want the source's typed fault", k, err)
				}
				var te *mpinet.TransportError
				if !errors.As(err, &te) || te.Rank != bad {
					t.Errorf("rank %d: got %v, want a count mismatch from rank %d", k, err, bad)
				}
			}
		})
		for variant, opts := range map[string][]DistOption{
			"coded":          {WithAsyncWindow(2), WithCoding(1)},
			"coded-blocking": {WithCoding(1)},
		} {
			t.Run(name+"/"+variant, func(t *testing.T) {
				for k, err := range run(t, opts) {
					if k == bad {
						continue
					}
					var loss *UnrecoverableLossError
					if !errors.As(err, &loss) || len(loss.DeadRanks) != 1 || loss.DeadRanks[0] != bad {
						t.Errorf("rank %d: got %v, want an UnrecoverableLossError naming rank %d", k, err, bad)
					}
				}
			})
		}
	}
}

// TestAsyncCodedBitIdentity: coding composes with streaming — for every
// parity budget the streamed coded exchange must reproduce the blocking
// coded exchange (and hence the plain transform) bit for bit on a clean
// run.
func TestAsyncCodedBitIdentity(t *testing.T) {
	const r, seed = 4, 303
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(codedParams.N, seed)
	ref, _, _ := runSOIDistributed(t, codedParams, r, seed)
	nLocal := codedParams.N / r
	for _, m := range []int{0, 1, 2} {
		for _, win := range []int{1, 2} {
			got := make([]complex128, codedParams.N)
			w, err := mpi.NewWorld(r)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(c *mpi.Comm) error {
				rank := c.Rank()
				out := make([]complex128, nLocal)
				_, err := pl.RunDistributed(context.Background(), c, out,
					src[rank*nLocal:(rank+1)*nLocal],
					WithCoding(m), WithAsyncWindow(win))
				copy(got[rank*nLocal:(rank+1)*nLocal], out)
				return err
			})
			if err != nil {
				t.Fatalf("m=%d window=%d: %v", m, win, err)
			}
			if e := signal.MaxAbsErr(got, ref); e != 0 {
				t.Errorf("m=%d window=%d: streamed coded differs by %.3e", m, win, e)
			}
		}
	}
}

// TestRunDistributedInverseOptions: the distributed inverse takes the
// forward driver's options unchanged — every exchange variant returns
// the same bits, equal to the shared-memory inverse of the same spectrum,
// and repeated runs on the warm plan (conjugate input in the reused
// workspace) stay identical.
func TestRunDistributedInverseOptions(t *testing.T) {
	const r, seed = 4, 304
	freq, _, _ := runSOIDistributed(t, streamParams, r, seed)
	pl, err := NewPlan(streamParams)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, streamParams.N)
	if err := pl.InverseTransform(want, freq); err != nil {
		t.Fatal(err)
	}
	nLocal := streamParams.N / r
	variants := map[string][]DistOption{
		"blocking": nil,
		"streamed": {WithAsyncWindow(2)},
		"coded":    {WithCoding(1)},
	}
	for name, opts := range variants {
		for pass := 0; pass < 2; pass++ {
			got := make([]complex128, streamParams.N)
			w, err := mpi.NewWorld(r)
			if err != nil {
				t.Fatal(err)
			}
			err = w.Run(func(c *mpi.Comm) error {
				k := c.Rank()
				_, err := pl.RunDistributedInverse(context.Background(), c,
					got[k*nLocal:(k+1)*nLocal], freq[k*nLocal:(k+1)*nLocal], opts...)
				return err
			})
			if err != nil {
				t.Fatalf("%s pass %d: %v", name, pass, err)
			}
			if e := signal.MaxAbsErr(got, want); e != 0 {
				t.Errorf("%s pass %d: distributed inverse differs from InverseTransform by %.3e", name, pass, e)
			}
		}
	}
}

// TestChunkLayoutBitIdentity pins the segment-major chunk layout: the
// shape's stream chunks are taller than convTileRows, so sub-tiles start
// inside a chunk (t − cLo > 0), and window 3's tile count does not divide
// the rows per rank, so chunks differ in height. With two workers parfor
// splits each compute tile, and the halves write disjoint runs of one
// destination chunk. The one-rank world runs both layouts through a
// generic Comm: window 0 scatters straight into send and runs F_M' in
// place, windows 1 and 3 tile, copy and assemble. Coded cells carry the
// most parity the world allows, m = R−1 (none at one rank), folded on
// both store paths. Every cell, forward and inverse, flat and coded,
// must equal the shared-memory transform bit for bit; that
// transform runs the same driver, so TestTransformBitsPinned's hashes
// are the independent anchor.
func TestChunkLayoutBitIdentity(t *testing.T) {
	p := Params{N: 1 << 14, P: 8, Mu: 5, Nu: 4, B: 32}
	src := signal.Random(p.N, 305)
	plans := make([]*Plan, 3)
	for workers := 1; workers <= 2; workers++ {
		p.Workers = workers
		pl, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		plans[workers] = pl
	}
	fwd, inv := make([]complex128, p.N), make([]complex128, p.N)
	if err := plans[1].Transform(fwd, src); err != nil {
		t.Fatal(err)
	}
	if err := plans[1].InverseTransform(inv, src); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 4} {
		nLocal := p.N / r
		wins := []int{0, 1, 3, r}
		if r == 1 {
			wins = wins[:3]
		}
		for _, win := range wins {
			for workers := 1; workers <= 2; workers++ {
				for _, inverse := range []bool{false, true} {
					for _, coded := range []bool{false, true} {
						opts := []DistOption{WithAsyncWindow(win)}
						if coded {
							opts = append(opts, WithCoding(r-1))
						}
						pl := plans[workers]
						run, want := pl.RunDistributed, fwd
						if inverse {
							run, want = pl.RunDistributedInverse, inv
						}
						cell := fmt.Sprintf("R=%d window=%d workers=%d inverse=%v coded=%v", r, win, workers, inverse, coded)
						got := make([]complex128, p.N)
						w, err := mpi.NewWorld(r)
						if err != nil {
							t.Fatal(err)
						}
						err = w.Run(func(c *mpi.Comm) error {
							k := c.Rank()
							_, err := run(context.Background(), c, got[k*nLocal:(k+1)*nLocal], src[k*nLocal:(k+1)*nLocal], opts...)
							return err
						})
						if err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						if e := signal.MaxAbsErr(got, want); e != 0 {
							t.Errorf("%s: differs from the shared-memory transform by %.3e", cell, e)
						}
					}
				}
			}
		}
	}
}
