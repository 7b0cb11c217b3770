package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"soifft/internal/erasure"
	"soifft/internal/exch"
	"soifft/internal/instrument"
	"soifft/internal/telemetry"
	"soifft/internal/trace"
)

// Comm is the one transport contract of the distributed drivers, held
// by *mpinet.Proc over either of its links — in process (mpi.NewWorld,
// whose Comm is that Proc) or TCP — so the same SOI code runs over
// goroutines or over real sockets. It holds only
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
	Gather(root int, chunk []complex128) ([]complex128, error)
	StartAlltoallv(o exch.Options) exch.Stream
}

// Fault is the marker interface for typed communication failures:
// *mpinet.TransportError, the one failure of both links, implements it,
// and the drivers return it unchanged, so a wire failure surfaces as a
// typed error from RunDistributed instead of a hang.
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

	transpose time.Duration // the share of Convolve inside BatchScatter: PhaseTimes.Transpose
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

// sentCounter is a Comm whose links count what this rank sends, by tag
// band: *mpinet.Proc. A run books its traffic into the recorder as the
// difference of a snapshot before and after; a Comm without the
// counters, the node's among them, books none.
type sentCounter interface{ Sent() exch.Bands }

// book books what this rank sent during the exchange, the traffic d its
// band counters added: a degraded run's parity and coded-control bytes
// into deg, and into the recorder halo and collective payloads as
// messages, the stream band as all-to-all bytes and chunks (self-copies
// never touch a link, so summed over ranks this is 16·(1+β)·N·(R−1)/R
// bytes per transform, whatever the window), parity, and — only once a
// death was detected — coded control as recovery traffic. Rank 0 books
// the collective.
func (e *distExec) book(d exch.Bands, deg *DegradedError) {
	if deg != nil {
		deg.ParityBytes, deg.RecoveryBytes = d[exch.BandParity].Bytes, d[exch.BandCoded].Bytes
	}
	rec := e.rec
	if !rec.On() {
		return
	}
	if e.rank == 0 {
		rec.CountAlltoallOp()
	}
	bookMessages(rec, d)
	rec.CountAlltoallBytes(d[exch.BandStream].Bytes)
	rec.CountStreamChunks(d[exch.BandStream].Messages)
	rec.CountParityBytes(d[exch.BandParity].Bytes)
	if e.cx != nil && slices.Contains(e.cx.dead, true) {
		rec.CountRecoveryBytes(d[exch.BandCoded].Bytes)
	}
}

// bookMessages books d's halo and collective payloads as messages.
func bookMessages(rec *instrument.Recorder, d exch.Bands) {
	h, c := d[exch.BandHalo], d[exch.BandCollective]
	rec.CountMessages(h.Messages+c.Messages, h.Bytes+c.Bytes)
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
//   - WithAsyncWindow(w) streams the all-to-all in per-tile chunks, w in
//     flight per link, overlapped with convolution — wire time hides
//     behind compute, and the Exchange stage time reports only the
//     un-hidden remainder;
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
	return pl.run(ctx, c, cfg, localOut, localIn)
}

// run is the distributed driver: phases 1–2 fanned out through the
// single all-to-all, then phase 4. A coded run is the same run plus its
// stages: produce folds each tile into the parity, the exchange fans the
// parity out and ends with detection and recovery, and after a degraded
// exchange the coordinator also takes over each dead rank's block.
// Plan.Transform runs it on the one-rank nodeComm.
func (pl *Plan) run(ctx context.Context, c Comm, cfg distOptions, localOut, localIn []complex128) (DistributedTimes, error) {
	e, err := pl.newDistExec(ctx, cfg, c, localOut, localIn)
	if err != nil {
		return DistributedTimes{}, err
	}
	// Phases 1–3: the single all-to-all (stride-P permutation
	// P_perm^{P,N'}) leaves the per-source chunks in ws.cols.
	deg, err := e.exchange(ctx, localIn)
	if err != nil {
		return e.dt, err
	}
	if err := ctx.Err(); err != nil {
		return e.dt, err
	}

	// Phase 4: each owned segment's oversampled sequence through F_M',
	// projection and demodulation.
	t0 := time.Now()
	e.tr.Begin(e.tid, e.rank, instrument.StageSegmentFFT.String())
	e.phase4(e.ws.cols, localOut)
	if deg != nil && e.rank == deg.Coordinator {
		// Take over the dead ranks' segment assembly: the pipeline is
		// owner-agnostic, so feeding it dead rank d's column (pooled
		// survivor chunks plus decoded chunks) yields d's exact block.
		for _, d := range deg.ReconstructedRanks {
			out := make([]complex128, e.nLocal)
			e.phase4(e.cx.column(d), out)
			deg.TakenOver[d] = out
		}
	}
	e.dt.SegmentFT = time.Since(t0)
	e.tr.End(e.tid, e.rank, instrument.StageSegmentFFT.String())

	dt := e.dt // e lives in the workspace finish hands back
	e.finish(localOut, deg)
	if deg != nil {
		return dt, deg
	}
	return dt, nil
}

// distExec is the per-rank execution state one distributed transform
// shares between its phases. It lives in the run's workspace.
type distExec struct {
	pl                *Plan
	c                 Comm
	ws                *distWorkspace       // every payload-sized buffer of the run
	rec               *instrument.Recorder // this run's recorder (plan's unless WithRecorder overrode it)
	cx                *codedExchange       // coded runs only: parity, detection and recovery state
	rank, r           int
	workers           int
	nLocal            int
	bpr               int        // convolution blocks per rank
	spr               int        // segments per rank
	chunk             int        // elements per destination in the exchange (bpr·spr)
	window            int        // in-flight chunks per link (0 = one chunk, sent after the last row)
	tiles, chunks     []int      // the exchange schedule's compute tiles and chunk bounds, in blocks
	drained           chan error // the drain goroutine's verdict (R > 1)
	inverse           bool       // conjugate in, conjugate-and-scale out
	tr                *trace.Tracer
	tid               trace.ID
	tele              *telemetry.Plane
	timed             bool
	convBusy, segBusy atomic.Int64
	scatter           atomic.Int64 // ns inside BatchScatter
	dt                DistributedTimes
}

// newDistExec validates plan/world/buffer shapes, takes a workspace and
// assembles the execution state in it; a coded run also gets its code,
// its parity buffers and its codedExchange. A run uses cfg.workers
// goroutines, else Params.Workers, at least one.
func (pl *Plan) newDistExec(ctx context.Context, cfg distOptions, c Comm, localOut, localIn []complex128) (*distExec, error) {
	r := c.Size()
	var code *erasure.Code
	if cfg.coded {
		if err := ValidateCoded(r, cfg.parity); err != nil {
			return nil, err
		}
		var err error
		if code, err = erasure.New(r, cfg.parity); err != nil {
			return nil, err
		}
	}
	if err := pl.ValidateDistributed(r); err != nil {
		return nil, err
	}
	p := pl.prm
	nLocal := p.N / r
	if len(localIn) != nLocal || len(localOut) != nLocal {
		return nil, fmt.Errorf("core: rank %d: need local length %d, got in %d out %d: %w",
			c.Rank(), nLocal, len(localIn), len(localOut), ErrLength)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	workers := cmp.Or(cfg.workers, max(p.Workers, 1))
	ws := pl.getDistWorkspace(r, workers)
	rank, bpr, spr := c.Rank(), pl.mp/r, p.P/r
	chunk := bpr * spr
	for src := range ws.cols {
		buf, at := ws.recv, src
		switch {
		case src == rank:
			buf = ws.send // the self chunk never leaves send
		case src > rank:
			at-- // recv has no slot for this rank
		}
		ws.cols[src] = buf[at*chunk : (at+1)*chunk]
	}
	e := &ws.exec
	*e = distExec{
		pl: pl, c: c, ws: ws,
		rec: cfg.rec, rank: rank, r: r, nLocal: nLocal,
		workers: workers,
		bpr:     bpr, spr: spr, chunk: chunk,
		window:  cfg.window,
		inverse: cfg.inverse,
		tele:    cfg.tele,
		timed:   cfg.rec.Timing(),
	}
	e.tr, e.tid = pl.tracerFor(ctx)
	if cfg.coded {
		m := cfg.parity
		ws.parity, ws.parityIn = grown(ws.parity, m*chunk), grown(ws.parityIn, m*chunk)
		e.cx = &codedExchange{e: e, m: m, code: code, recv: ws.cols,
			parityIn: make(map[int][]complex128), dead: make([]bool, r), masks: make([]uint64, r)}
	}
	return e, nil
}

// finish closes a run that produced a complete spectrum: the inverse's
// output fix-up, the stage report, and — only on a clean run, here, with
// every helper goroutine joined and the stream closed — the workspace's
// return to the free list. Every other exit, a degraded one included,
// drops the workspace. e is not the caller's after finish.
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
	} else if e.rec.On() {
		e.rec.CountDegraded()
	}
}

// produce is the tile-wise phase 1–2, shared by every exchange: post the
// halo, then per compute tile [tiles[k], tiles[k+1]) of local rows
// convolve → F_P → pack into the workspace's send buffer (destination
// t's chunk at [t·chunk, (t+1)·chunk)), and once the rows of chunk i are
// packed fan it out through st, so destination links carry chunk i while
// the next tile is still convolving. The neighbour prefix is awaited
// before the first tile holding a boundary row.
//
// The stream may read the send buffer until it is closed. A send error
// fails a flat run; a coded run marks the destination dead, and
// detection settles it.
func (e *distExec) produce(ctx context.Context, st exch.Stream, localIn []complex128) (fan fanOut, err error) {
	pl, rank, r, ws := e.pl, e.rank, e.r, e.ws

	// Phase 1: post the halo prefix(es) immediately (sends are
	// asynchronous). In production shapes the halo is a single short
	// neighbour message (paper: "typically less than 0.01% of M"); tiny
	// test shapes may span several neighbours. One rank's halo is its own
	// head, the circular wrap. The prefix goes out as it is: an inverse
	// run conjugates it where it is staged, like the owned columns.
	t0 := time.Now()
	e.tr.Begin(e.tid, rank, instrument.StageHalo.String())
	var hs *haloStream
	if r == 1 {
		copy(ws.halo, localIn[:pl.HaloLen()])
	} else {
		hs, err = startHalo(e.c, localIn, ws.halo, e.window > 0, e.tr, e.tid)
	}
	e.dt.Halo += time.Since(t0)
	e.tr.End(e.tid, rank, instrument.StageHalo.String())
	if err != nil {
		return fan, err
	}

	next := 0 // the next chunk to fan out
	for k := 0; k+1 < len(e.tiles); k++ {
		lo, hi := e.tiles[k], e.tiles[k+1]

		// The boundary rows need the neighbour prefix(es); the tiles before
		// this point overlapped with the halo flight.
		if hs != nil && (hi > ws.jMid || k+2 == len(e.tiles)) {
			t0 = time.Now()
			e.tr.Begin(e.tid, rank, instrument.StageHalo.String())
			err, hs = hs.wait(), nil
			e.dt.Halo += time.Since(t0)
			e.tr.End(e.tid, rank, instrument.StageHalo.String())
			if err != nil {
				return fan, err
			}
		}

		// Phase 2 for this tile, which lies inside stream chunk next. One
		// worker calls the body itself: parfor's closure would escape.
		t0 = time.Now()
		e.tr.Begin(e.tid, rank, instrument.StageConvolve.String())
		cLo, cHi := e.chunks[next], e.chunks[next+1]
		if e.workers <= 1 {
			e.packRows(localIn, lo, hi, cLo, cHi)
		} else {
			parfor(e.workers, hi-lo, func(a, b int) { e.packRows(localIn, lo+a, lo+b, cLo, cHi) })
		}
		e.dt.Convolve += time.Since(t0)
		e.tr.End(e.tid, rank, instrument.StageConvolve.String())

		// Fan chunk next out once its rows are packed, neighbours first,
		// self last; Send blocks only on the in-flight window (wire
		// pacing), which is booked as visible exchange time.
		if hi == cHi {
			w0 := time.Now()
			for off := 0; off < r; off++ {
				dst := (rank + 1 + off) % r
				e.tr.ChunkBegin(e.tid, rank, "exchange_chunk_send", next)
				serr := st.Send(dst, next, ws.send[dst*e.chunk+cLo*e.spr:dst*e.chunk+cHi*e.spr])
				e.tr.ChunkEnd(e.tid, rank, "exchange_chunk_send", next)
				if serr != nil {
					if e.cx == nil {
						return fan, serr
					}
					e.cx.markDead(dst)
				}
			}
			fan.last = time.Now()
			if next == 0 {
				fan.first = w0
			}
			fan.wait += fan.last.Sub(w0)
			next++
		}
		if err := ctx.Err(); err != nil {
			return fan, err
		}
	}
	e.dt.transpose = time.Duration(e.scatter.Load())
	return fan, nil
}

// packRows is the fused phase-2 kernel for local rows [lo, hi) of
// stream chunk [cLo, cHi): per convTileRows-row tile, convolution → one
// BatchScatter (I⊗F_P with the node-local permutation of paper Fig 3 in
// its stores) while the tile is cache-hot. Destination d gets lanes
// [d·spr, (d+1)·spr), and within its stream chunk each segment ss is one
// run of cHi−cLo rows at ss·(cHi−cLo): segment-major, so phase 4 reads
// runs. When the chunk spans every row (window 0), lane u's rows are the
// run at u·bpr of send, so BatchScatter stores straight into it;
// otherwise lane u of the tile lands contiguous at u·n of v, and one copy
// per lane places it. On either path a coded run then folds the cache-hot
// tile into the parity. Each tile stages its window from localIn and, for
// rows from jMid on, the neighbour halo past it. Disjoint row ranges touch
// disjoint cells of send and of the parity, so ranges may run concurrently.
func (e *distExec) packRows(localIn []complex128, lo, hi, cLo, cHi int) {
	w0 := time.Now()
	pl, ws, lanes := e.pl, e.ws, e.pl.prm.P
	coded := e.cx != nil && e.cx.m > 0
	sc := <-ws.scratch
	defer func() { ws.scratch <- sc }()
	jLo, nk := e.rank*e.bpr, cHi-cLo
	in := convSource{body: localIn, tail: ws.halo, col: e.rank * e.nLocal, conj: e.inverse}
	var scat time.Duration
	for t := lo; t < hi; t += convTileRows {
		tEnd := min(t+convTileRows, hi)
		n := tEnd - t
		pl.convTile(sc.conv, sc.stage, &in, jLo+t, jLo+tEnd)
		s0 := time.Now()
		if nk == e.bpr {
			pl.fftP.BatchScatter(ws.send[t:], sc.conv, n, e.bpr)
			scat += time.Since(s0)
			for ss := 0; coded && ss < e.spr; ss++ {
				e.fold(sc, ws.send[ss*e.bpr+t:], e.chunk, ss*e.bpr+t, n)
			}
			continue
		}
		sc.v = grown(sc.v, convTileRows*lanes)
		pl.fftP.BatchScatter(sc.v, sc.conv, n, n)
		scat += time.Since(s0)
		for u := 0; u < lanes; u++ {
			d, ss := u/e.spr, u%e.spr
			copy(ws.send[d*e.chunk+cLo*e.spr+ss*nk+t-cLo:][:n], sc.v[u*n:])
		}
		for ss := 0; coded && ss < e.spr; ss++ {
			e.fold(sc, sc.v[ss*n:], e.spr*n, cLo*e.spr+ss*nk+t-cLo, n)
		}
	}
	e.scatter.Add(int64(scat))
	if e.timed {
		e.convBusy.Add(int64(time.Since(w0)))
	}
}

// fold encodes one strip of this rank's codeword, its R outgoing chunks
// (the unsent self chunk included, so parity covers its own column too):
// data share d's n elements at strip[d·stride:], which land at off of
// d's chunk, into the m parity shares' cells at off. Share 0 XORs the
// Float64bits (the first parity row is all ones); shares ≥ 1 multiply-add
// the byte images. The code is byte-wise, so any R of the R+m shares
// decode bit-identical chunks.
func (e *distExec) fold(sc *rankScratch, strip []complex128, stride, off, n int) {
	acc, p0 := strip[:n], e.ws.parity[off:][:n]
	for d := 1; d < e.r; d++ { // parity needs R ≥ 2
		s := strip[d*stride:][:n]
		for k := range p0 {
			a, b := acc[k], s[k]
			p0[k] = complex(math.Float64frombits(math.Float64bits(real(a))^math.Float64bits(real(b))),
				math.Float64frombits(math.Float64bits(imag(a))^math.Float64bits(imag(b))))
		}
		acc = p0
	}
	m := e.cx.m
	if m == 1 {
		return
	}
	size := 16 * n // img: the accumulating share, then the R strips' byte images
	sc.img = grown(sc.img, (1+e.r)*size)
	for d := 0; d < e.r; d++ {
		erasure.ComplexToBytes(sc.img[(1+d)*size:][:0], strip[d*stride:][:n])
	}
	for i := 1; i < m; i++ {
		clear(sc.img[:size])
		for d := 0; d < e.r; d++ {
			e.cx.code.MulAdd(i, d, sc.img[:size], sc.img[(1+d)*size:][:size])
		}
		_, _ = erasure.BytesToComplex(e.ws.parity[i*e.chunk+off:][:0], sc.img[:size]) // whole elements
	}
}

// phase4 segment-FFTs and demodulates one rank's worth of owned segments
// into out (nLocal elements), the demodulation fused into the FFT's last
// pass. Each segment's oversampled sequence is assembled from the
// per-source chunks (the receive side of the stride-P transpose), one
// contiguous run per source and stream chunk: cols[src] must be the
// segment-major bpr·spr chunk that source rank src addressed to the
// output owner. The segment pipeline is owner-agnostic (the global
// segment identity is baked into the chunk data by the phase-2
// modulation), so a coded run reuses it verbatim to take over a dead
// rank's output with bit-identical results.
func (e *distExec) phase4(cols [][]complex128, out []complex128) {
	if e.workers <= 1 { // parfor's closure would escape
		e.segments(cols, out, 0, e.spr)
		return
	}
	parfor(e.workers, e.spr, func(sLo, sHi int) { e.segments(cols, out, sLo, sHi) })
}

// segments is phase4's body for owned segments [sLo, sHi). With one
// source and one chunk (one rank, window 0) segment ss is already the
// contiguous run at ss·bpr of the chunk, dead after the exchange, so
// F_M' reads it in place.
func (e *distExec) segments(cols [][]complex128, out []complex128, sLo, sHi int) {
	w0 := time.Now()
	pl := e.pl
	sc := <-e.ws.scratch
	defer func() { e.ws.scratch <- sc }()
	inPlace := e.r == 1 && len(e.chunks) == 2
	for ss := sLo; ss < sHi; ss++ {
		xt := cols[0][ss*e.bpr:][:e.bpr] // with one source and one chunk, segment ss is this run
		if !inPlace {
			sc.xt = grown(sc.xt, pl.mp)
			xt = sc.xt
			for src, cb := range cols {
				row := xt[src*e.bpr:]
				for k := 0; k+1 < len(e.chunks); k++ {
					cLo, cHi := e.chunks[k], e.chunks[k+1]
					copy(row[cLo:cHi], cb[cLo*e.spr+ss*(cHi-cLo):])
				}
			}
		}
		pl.fftMP.ForwardDemod(out[ss*pl.m:(ss+1)*pl.m], xt, pl.invW)
	}
	if e.timed {
		e.segBusy.Add(int64(time.Since(w0)))
	}
}

// report books the transform's stage observations into the plan's
// recorder (no-op when instrumentation is off) and, when a telemetry
// plane is attached, ships the rank's refreshed stat frame to rank 0.
// The demodulation is fused into the segment FFT's last pass: its flops
// are booked on its own stage, its wall on segment_fft.
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
	r := int64(e.r)
	rec.ObserveStage(instrument.StageHalo, wall.Halo, 0, 1, 0)
	rec.ObserveStage(instrument.StageConvolve, wall.Convolve,
		time.Duration(e.convBusy.Load()), e.workers, e.pl.convStageFlops()/r)
	rec.ObserveStage(instrument.StageExchange, wall.Exchange, 0, 1, 0)
	rec.ObserveStage(instrument.StageSegmentFFT, wall.SegmentFT,
		time.Duration(e.segBusy.Load()), e.workers, e.pl.segmentStageFlops()/r)
	rec.ObserveStage(instrument.StageDemod, 0, 0, e.workers, e.pl.demodStageFlops()/r)
}
