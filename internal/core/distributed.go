package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"soifft/internal/exch"
	"soifft/internal/instrument"
	"soifft/internal/telemetry"
	"soifft/internal/trace"
)

// Tags used by the distributed driver.
const (
	tagHalo = 100
)

// Comm is the one transport contract of the distributed drivers, held
// by *mpi.Comm (the in-process runtime) and *mpinet.Proc (TCP), so the
// same SOI code runs over goroutines or over real sockets. It holds only
// what the drivers call. Like an MPI call returning its code, every
// fallible method reports a transport failure (peer death, corrupted
// frame, expired I/O deadline, aborted world) as a returned error that
// implements Fault, and so does a call naming a rank outside the world.
type Comm interface {
	Rank() int
	Size() int
	Send(to, tag int, data []complex128) error
	RecvC(from, tag int) ([]complex128, error)
	RecvInto(dst []complex128, from, tag int) error
	AlltoallInto(recv, send []complex128, chunk int) error
	Gather(root int, chunk []complex128) ([]complex128, error)
	StartAlltoallv(o exch.Options) exch.Stream
}

// Fault is the marker interface for typed communication failures:
// *mpinet.TransportError, *mpi.AbortError and *mpi.CollectiveError
// implement it, and the drivers return them unchanged, so a wire failure
// surfaces as a typed error from RunDistributed instead of a hang.
type Fault interface {
	error
	CommFault()
}

// GuardComm runs fn and returns nil.
//
// Deprecated: Comm methods return their Faults; check those errors
// instead.
func GuardComm(fn func()) error {
	fn()
	return nil
}

// DistributedTimes records the per-phase wall time of one rank's
// distributed transform; the single Exchange entry is the headline
// communication step the paper optimizes.
type DistributedTimes struct {
	Halo      time.Duration // neighbour exchange of (B−1)·P elements
	Convolve  time.Duration // W·x plus I⊗F_P on local blocks
	Exchange  time.Duration // the one and only all-to-all
	SegmentFT time.Duration // owned segments' F_M' + demodulation
}

// Total returns the sum over phases.
func (t DistributedTimes) Total() time.Duration {
	return t.Halo + t.Convolve + t.Exchange + t.SegmentFT
}

// ValidateDistributed checks that the plan can run on r ranks: the rank
// count must divide the segment count P and the convolution row groups
// M/ν (so each rank's block range starts on a μ-row group boundary), and
// the tap halo must fit within a single neighbour's block.
func (pl *Plan) ValidateDistributed(r int) error {
	p := pl.prm
	switch {
	case r <= 0:
		return fmt.Errorf("core: rank count must be positive, got %d: %w", r, ErrPlanMismatch)
	case p.P%r != 0:
		return fmt.Errorf("core: ranks=%d must divide segments P=%d: %w", r, p.P, ErrPlanMismatch)
	case pl.groups%r != 0:
		return fmt.Errorf("core: ranks=%d must divide row groups M/ν=%d: %w", r, pl.groups, ErrPlanMismatch)
	case r > 1 && pl.HaloLen() > (r-1)*(p.N/r):
		return fmt.Errorf("core: halo %d exceeds the %d available neighbour blocks of %d; decrease B or ranks: %w",
			pl.HaloLen(), r-1, p.N/r, ErrPlanMismatch)
	}
	return nil
}

// countingComm mirrors a Comm's traffic into a Recorder: point-to-point
// payload bytes at the sender, all-to-all volume as this rank's
// inter-rank contribution (self-copies excluded, matching what a fabric
// would carry — summed over per-rank recorders, or accumulated in one
// shared recorder, the total is 16·(1+β)·N·(R−1)/R bytes per SOI
// transform, identical for the blocking and streamed exchanges). The
// collective op itself is counted once per world, on rank 0, mirroring
// the mpi.World statistics convention. Receives forward by embedding.
type countingComm struct {
	Comm
	rec *instrument.Recorder
}

// instrumentComm wraps c when the recorder is observing; otherwise it
// returns c untouched so the uninstrumented path has zero indirection.
func instrumentComm(c Comm, rec *instrument.Recorder) Comm {
	if !rec.On() {
		return c
	}
	return &countingComm{Comm: c, rec: rec}
}

func (cc *countingComm) Send(to, tag int, data []complex128) error {
	cc.rec.CountMessage(int64(len(data)) * 16)
	return cc.Comm.Send(to, tag, data)
}

func (cc *countingComm) AlltoallInto(recv, send []complex128, chunk int) error {
	if cc.Comm.Rank() == 0 {
		cc.rec.CountAlltoallOp()
	}
	cc.rec.CountAlltoallBytes(int64(cc.Comm.Size()-1) * int64(chunk) * 16)
	return cc.Comm.AlltoallInto(recv, send, chunk)
}

func (cc *countingComm) Gather(root int, chunk []complex128) ([]complex128, error) {
	if cc.Comm.Rank() != root {
		cc.rec.CountMessage(int64(len(chunk)) * 16)
	}
	return cc.Comm.Gather(root, chunk)
}

// StartAlltoallv counts the chunked frames against the same analytic
// budget as the blocking exchange: the op once on rank 0, and every
// non-self chunk's payload at the sender. Summed over a stream, the
// chunks partition exactly the blocking exchange's (R−1)·chunk elements,
// so the live 3/(1+β) ratio check holds unchanged regardless of window
// size.
func (cc *countingComm) StartAlltoallv(o exch.Options) exch.Stream {
	if cc.Comm.Rank() == 0 {
		cc.rec.CountAlltoallOp()
	}
	return &countedStream{Stream: cc.Comm.StartAlltoallv(o), cc: cc}
}

type countedStream struct {
	exch.Stream
	cc *countingComm
}

func (s *countedStream) Send(dst, idx int, data []complex128) error {
	if dst != s.cc.Comm.Rank() {
		s.cc.rec.CountAlltoallBytes(int64(len(data)) * 16)
		s.cc.rec.CountStreamChunk()
	}
	return s.Stream.Send(dst, idx, data)
}

// RunDistributed executes the SOI factorization over the communicator:
// rank p provides localIn = x[p·N/R : (p+1)·N/R] and receives
// localOut = y[p·N/R : (p+1)·N/R]. Communication per rank is one
// neighbour halo of (B−1)·P points plus a single all-to-all of
// (1+β)·N/R points — versus three all-to-alls of N/R points for the
// standard algorithms in internal/baseline.
//
// Options select the exchange machinery without changing the spectrum
// (all variants are bit-identical on a clean run):
//   - WithAsyncWindow(w) streams the all-to-all in chunks, w in flight
//     per link, overlapped with convolution — wire time hides behind
//     compute, and the Exchange stage time reports only the un-hidden
//     remainder;
//   - WithCoding(m) erasure-protects the exchange so the transform
//     survives up to m rank deaths; coding composes with
//     WithAsyncWindow;
//   - WithRecorder(rec) observes the run with a specific recorder.
//
// On a streamed run the halo prefix exchange streams in chunks too (the
// exch.HaloSizes schedule), so both communication phases hide behind
// compute.
//
// A cancelled context stops this rank before its next local phase; it
// does not interrupt a collective already in flight (the transport's
// I/O deadline bounds those), and ranks that stop early leave peers to
// fail with their own deadline faults.
func (pl *Plan) RunDistributed(ctx context.Context, c Comm, localOut, localIn []complex128, opts ...DistOption) (DistributedTimes, error) {
	return pl.runDistributed(ctx, c, localOut, localIn, opts, false)
}

// runDistributed is RunDistributed, or with inverse set its conjugated
// twin (see RunDistributedInverse).
func (pl *Plan) runDistributed(ctx context.Context, c Comm, localOut, localIn []complex128, opts []DistOption, inverse bool) (DistributedTimes, error) {
	cfg := pl.resolveDistOptions(opts)
	cfg.inverse = inverse
	if cfg.coded {
		return pl.runCoded(ctx, c, cfg, localOut, localIn)
	}
	return pl.runFlat(ctx, c, cfg, localOut, localIn)
}

// runFlat is the uncoded distributed transform: phases 1–2 and the single
// all-to-all (blocking, or streamed and overlapped when an async window
// is configured), then phase 4.
func (pl *Plan) runFlat(ctx context.Context, c Comm, cfg distOptions, localOut, localIn []complex128) (DistributedTimes, error) {
	e, localIn, err := pl.newDistExec(ctx, cfg, c, localOut, localIn)
	if err != nil {
		return DistributedTimes{}, err
	}
	// Phases 1–3: the single all-to-all (stride-P permutation
	// P_perm^{P,N'}), blocking or streamed, leaves the per-source chunks
	// where chunkOf finds them.
	if e.window > 0 {
		if err := e.exchangeStreamed(ctx, localIn); err != nil {
			return e.dt, err
		}
	} else {
		if _, err := e.produce(ctx, nil, []int{0, e.ws.jMid, e.bpr}, localIn, nil); err != nil {
			return e.dt, err
		}
		t0 := time.Now()
		e.tr.Begin(e.tid, e.rank, instrument.StageExchange.String())
		err = e.c.AlltoallInto(e.ws.recv, e.ws.send, e.chunk)
		e.dt.Exchange = time.Since(t0)
		e.tr.End(e.tid, e.rank, instrument.StageExchange.String())
		if err != nil {
			return e.dt, err
		}
	}
	if err := ctx.Err(); err != nil {
		return e.dt, err
	}

	// Phase 4: each owned segment's oversampled sequence through F_M',
	// projection and demodulation.
	t0 := time.Now()
	e.tr.Begin(e.tid, e.rank, instrument.StageSegmentFFT.String())
	e.phase4(e.chunkOf, localOut)
	e.dt.SegmentFT = time.Since(t0)
	e.tr.End(e.tid, e.rank, instrument.StageSegmentFFT.String())

	e.finish(localOut, nil)
	return e.dt, nil
}

// distExec is the per-rank execution state one distributed transform
// shares between its phases; the plain and coded drivers both build one
// and differ only in how chunks cross the wire between produce and
// phase4.
type distExec struct {
	pl                *Plan
	c                 Comm                 // collective/halo surface (instrument-wrapped when observing)
	ws                *distWorkspace       // every payload-sized buffer of the run
	rec               *instrument.Recorder // this run's recorder (plan's unless WithRecorder overrode it)
	rank, r           int
	workers           int
	nLocal            int
	bpr               int  // convolution blocks per rank
	spr               int  // segments per rank
	chunk             int  // elements per destination in the exchange (bpr·spr)
	window            int  // streamed-exchange in-flight window (0 = blocking)
	inverse           bool // conjugate in, conjugate-and-scale out
	tr                *trace.Tracer
	tid               trace.ID
	tele              *telemetry.Plane
	timed             bool
	convBusy, segBusy atomic.Int64
	dt                DistributedTimes
}

// newDistExec validates plan/world/buffer shapes, takes a workspace and
// assembles the execution state. It returns the input the phases must
// read: localIn itself, or on an inverse run its conjugate in the
// workspace.
func (pl *Plan) newDistExec(ctx context.Context, cfg distOptions, c Comm, localOut, localIn []complex128) (*distExec, []complex128, error) {
	r := c.Size()
	if err := pl.ValidateDistributed(r); err != nil {
		return nil, nil, err
	}
	p := pl.prm
	nLocal := p.N / r
	if len(localIn) != nLocal || len(localOut) != nLocal {
		return nil, nil, fmt.Errorf("core: rank %d: need local length %d, got in %d out %d: %w",
			c.Rank(), nLocal, len(localIn), len(localOut), ErrLength)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	e := &distExec{
		pl: pl, c: instrumentComm(c, cfg.rec), ws: pl.getDistWorkspace(r),
		rec: cfg.rec, rank: c.Rank(), r: r, nLocal: nLocal,
		workers: max(p.Workers, 1), // one goroutine per rank unless hybrid mode is requested
		bpr:     pl.mp / r, spr: p.P / r, chunk: (pl.mp / r) * (p.P / r),
		window:  cfg.window,
		inverse: cfg.inverse,
		tele:    cfg.tele,
		timed:   cfg.rec.Timing(),
	}
	e.tr, e.tid = pl.tracerFor(ctx)
	if e.inverse {
		e.ws.conj = grown(e.ws.conj, nLocal)
		conjInto(e.ws.conj, localIn)
		localIn = e.ws.conj
	}
	return e, localIn, nil
}

// finish closes a run that produced a complete spectrum: the inverse's
// output fix-up, the stage report, and — only on a clean run, here, with
// every helper goroutine joined and the stream closed — the workspace's
// return to the free list. Every other exit, a degraded one included,
// drops the workspace.
func (e *distExec) finish(localOut []complex128, deg *DegradedError) {
	if e.inverse {
		scale := 1 / float64(e.pl.prm.N)
		conjScale(localOut, scale)
		if deg != nil {
			for _, block := range deg.TakenOver {
				conjScale(block, scale)
			}
		}
	}
	e.report()
	if deg == nil {
		e.pl.putDistWorkspace(e.ws)
	}
}

// produce is the tile-wise phase 1–2, shared by every exchange: post the
// halo, then per tile [bounds[k], bounds[k+1]) of local rows convolve →
// F_P → pack into the workspace's send buffer (destination t's chunk at
// [t·chunk, (t+1)·chunk)) and, when st is non-nil, fan the tile out so
// destination links carry tile k while tile k+1 is still convolving. The
// blocking exchanges pass st == nil and the two tiles {interior,
// boundary}: the interior rows overlap the halo flight and nothing
// leaves before the caller's all-to-all. The neighbour prefix is awaited
// before the first tile holding a boundary row.
//
// In-flight chunks may reference the send buffer until the stream is
// closed; the coded exchange encodes parity over it after the fan-out.
// sendWait is the cumulative time Send spent blocked on window
// backpressure. A send error fails the run unless onDead is set: the
// coded path notes the dead destination there and carries on.
func (e *distExec) produce(ctx context.Context, st exch.Stream, bounds []int, localIn []complex128, onDead func(dst int)) (sendWait time.Duration, err error) {
	pl, rank, r, ws := e.pl, e.rank, e.r, e.ws
	halo := pl.HaloLen()
	own := len(ws.stitch) - halo // owned columns the boundary rows read
	copy(ws.stitch, localIn[ws.stitchCol:])

	// Phase 1: post the halo prefix(es) immediately (sends are
	// asynchronous). In production shapes the halo is a single short
	// neighbour message (paper: "typically less than 0.01% of M"); tiny
	// test shapes may span several neighbours.
	t0 := time.Now()
	e.tr.Begin(e.tid, rank, instrument.StageHalo.String())
	var hs *haloStream
	switch {
	case r == 1:
		copy(ws.stitch[own:], localIn[:halo])
	case st != nil:
		hs, err = e.startHaloStream(localIn, ws.stitch[own:])
	default:
		for d := 1; err == nil && (d-1)*e.nLocal < halo; d++ {
			err = e.c.Send((rank-d+r*d)%r, tagHalo+d, localIn[:min(halo-(d-1)*e.nLocal, e.nLocal)])
		}
	}
	e.dt.Halo += time.Since(t0)
	e.tr.End(e.tid, rank, instrument.StageHalo.String())
	if err != nil {
		return 0, err
	}

	haveHalo := r == 1
	for k := 0; k+1 < len(bounds); k++ {
		lo, hi := bounds[k], bounds[k+1]

		// The boundary rows need the neighbour prefix(es); the tiles before
		// this point overlapped with the halo flight.
		if !haveHalo && (hi > ws.jMid || k+2 == len(bounds)) {
			haveHalo = true
			t0 = time.Now()
			e.tr.Begin(e.tid, rank, instrument.StageHalo.String())
			if hs != nil {
				err = hs.wait()
			} else {
				for d := 1; err == nil && (d-1)*e.nLocal < halo; d++ {
					dst := ws.stitch[own+(d-1)*e.nLocal : own+min(d*e.nLocal, halo)]
					err = e.c.RecvInto(dst, (rank+d)%r, tagHalo+d)
				}
			}
			e.dt.Halo += time.Since(t0)
			e.tr.End(e.tid, rank, instrument.StageHalo.String())
			if err != nil {
				return sendWait, err
			}
		}

		// Phase 2 for this tile.
		t0 = time.Now()
		e.tr.Begin(e.tid, rank, instrument.StageConvolve.String())
		parfor(e.workers, hi-lo, func(a, b int) {
			w0 := time.Now()
			e.packRows(localIn, lo+a, lo+b)
			if e.timed {
				e.convBusy.Add(int64(time.Since(w0)))
			}
		})
		e.dt.Convolve += time.Since(t0)
		e.tr.End(e.tid, rank, instrument.StageConvolve.String())

		// Fan tile k out, neighbours first, self last; Send blocks only on
		// the in-flight window (wire pacing), which we book as visible
		// exchange time.
		for off := 0; st != nil && off < r; off++ {
			dst := (rank + 1 + off) % r
			w0 := time.Now()
			e.tr.ChunkBegin(e.tid, rank, "exchange_chunk_send", k)
			serr := st.Send(dst, k, ws.send[dst*e.chunk+lo*e.spr:dst*e.chunk+hi*e.spr])
			e.tr.ChunkEnd(e.tid, rank, "exchange_chunk_send", k)
			sendWait += time.Since(w0)
			if serr != nil {
				if onDead == nil {
					return sendWait, serr
				}
				onDead(dst)
			}
		}
		if err := ctx.Err(); err != nil {
			return sendWait, err
		}
	}
	return sendWait, nil
}

// packRows is the fused phase-2 kernel for local rows [lo, hi), the
// distributed twin of convPass: per convTileRows-row tile, ConvolveRange
// → F_P batch → each destination's lanes written straight into the
// packed send layout while the tile is cache-hot (the node-local
// permutation of paper Fig 3: destination t gets lanes [t·spr, (t+1)·spr)
// of every block). Interior rows convolve directly from localIn; rows
// from jMid on read the halo stitch buffer. Disjoint row ranges touch
// disjoint cells of send, so ranges may run concurrently.
func (e *distExec) packRows(localIn []complex128, lo, hi int) {
	pl, ws, lanes := e.pl, e.ws, e.pl.prm.P
	sc := <-ws.scratch
	defer func() { ws.scratch <- sc }()
	jLo, col := e.rank*e.bpr, e.rank*e.nLocal
	for t := lo; t < hi; t += convTileRows {
		tEnd := min(t+convTileRows, hi)
		n := tEnd - t
		mid := min(max(ws.jMid, t), tEnd) // first boundary row of the tile
		pl.ConvolveRange(sc.conv, localIn, jLo+t, jLo+mid, col)
		pl.ConvolveRange(sc.conv[(mid-t)*lanes:], ws.stitch, jLo+mid, jLo+tEnd, col+ws.stitchCol)
		pl.fftP.Batch(sc.v[:n*lanes], sc.conv[:n*lanes], n)
		for d := 0; d < e.r; d++ {
			out := ws.send[d*e.chunk+t*e.spr : d*e.chunk+tEnd*e.spr]
			for j := 0; j < n; j++ {
				copy(out[j*e.spr:(j+1)*e.spr], sc.v[j*lanes+d*e.spr:])
			}
		}
	}
}

// chunkOf returns the chunk source rank src addressed to this rank: the
// self chunk never leaves the packed send buffer, every other lands in
// recv in the blocking layout, whichever exchange ran.
func (e *distExec) chunkOf(src int) []complex128 {
	if src == e.rank {
		return e.ws.send[src*e.chunk : (src+1)*e.chunk]
	}
	return e.ws.recv[src*e.chunk : (src+1)*e.chunk]
}

// phase4 segment-FFTs and demodulates one rank's worth of owned segments
// into out (nLocal elements). Each segment's oversampled sequence is
// gathered from the per-source chunks (the receive side of the stride-P
// transpose): chunkOf(src) must return the bpr·spr chunk that source
// rank src addressed to the output owner. The segment pipeline is
// owner-agnostic (the global segment identity is baked into the chunk
// data by the phase-2 modulation), so the coded driver reuses it verbatim
// to take over a dead rank's output with bit-identical results.
func (e *distExec) phase4(chunkOf func(src int) []complex128, out []complex128) {
	pl := e.pl
	parfor(e.workers, e.spr, func(sLo, sHi int) {
		w0 := time.Now()
		sc := <-e.ws.scratch
		defer func() { e.ws.scratch <- sc }()
		for ss := sLo; ss < sHi; ss++ {
			xt := sc.xt
			for src := 0; src < e.r; src++ {
				cb := chunkOf(src)
				for j := 0; j < e.bpr; j++ {
					xt[src*e.bpr+j] = cb[j*e.spr+ss]
				}
			}
			pl.SegmentFFT(sc.yt, xt)
			pl.Demodulate(out[ss*pl.m:(ss+1)*pl.m], sc.yt)
		}
		if e.timed {
			e.segBusy.Add(int64(time.Since(w0)))
		}
	})
}

// report books the transform's stage observations into the plan's
// recorder (no-op when instrumentation is off) and, when a telemetry
// plane is attached, ships the rank's refreshed stat frame to rank 0.
func (e *distExec) report() {
	defer e.tele.OnTransformEnd() // after the recorder sees this transform
	rec := e.rec
	if !rec.On() {
		return
	}
	rec.AddTransform() // counts per-rank executions on the distributed path
	wall := e.dt
	if !rec.Timing() {
		wall = DistributedTimes{}
	}
	rec.ObserveStage(instrument.StageHalo, wall.Halo, 0, 1, 0)
	rec.ObserveStage(instrument.StageConvolve, wall.Convolve,
		time.Duration(e.convBusy.Load()), e.workers, e.pl.convStageFlops()/int64(e.r))
	rec.ObserveStage(instrument.StageExchange, wall.Exchange, 0, 1, 0)
	rec.ObserveStage(instrument.StageSegmentFFT, wall.SegmentFT,
		time.Duration(e.segBusy.Load()), e.workers,
		(e.pl.segmentStageFlops()+e.pl.demodStageFlops())/int64(e.r))
}
