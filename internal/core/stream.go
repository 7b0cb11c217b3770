package core

import (
	"cmp"
	"context"
	"time"

	"soifft/internal/exch"
	"soifft/internal/instrument"
)

// This file is the exchange of the distributed driver: one chunked
// all-to-all stream, which every run goes through, a node run's on its
// one-rank world included. The producer fans phase-1/2 output out chunk
// by chunk, and the transport lands each arriving chunk straight in the
// workspace's recv (in rank order, this rank's own chunk left in send),
// which phase 4 copies from in contiguous runs. With an async window
// w > 0 every compute tile is its own chunk, sent while later tiles are
// still convolving, so wire time hides behind compute; window 0 is the
// same stream with one chunk per destination, sent after the last row is
// packed — the blocking exchange.
// DistributedTimes.Exchange reports the un-hidden remainder (the fan-out
// itself plus the post-compute drain tail), and the overlapped span is
// booked via Recorder.AddHiddenExchange.
//
// The chunk schedule is derived identically on every rank from the plan,
// the world size and the window alone: chunk k covers convolution blocks
// [chunks[k], chunks[k+1]), and the chunk for (src→dst, k) is lanes
// [chunks[k]·spr, chunks[k+1]·spr) of dst's per-source chunk — a
// contiguous span of the packed send buffer, so the chunks of every
// window partition the same payload exactly (same bytes, same analytic
// 16·(1+β)·N·(R−1)/R budget) and the spectra are bit-identical. Inside
// the span the order is segment-major: each of the spr segments is one
// run of chunks[k+1]−chunks[k] rows.

// schedule sets the compute tiles and the chunk bounds, in blocks. At
// window w > 0 this rank's bpr blocks split into T = min(bpr, max(4, 2w))
// tiles — enough to keep the window busy, never more than one block
// each — and every tile is its own chunk. Window 0 computes the two
// tiles {interior, boundary}, so the interior rows overlap the halo
// flight (one tile at R = 1, where nothing is in flight), and sends each
// destination's whole chunk once, after the last row; the workspace
// holds that schedule. The window is the caller's
// WithAsyncWindow(w), the same on every rank, so the schedule — which
// receivers size the expected chunks from — comes out identical
// everywhere.
func (e *distExec) schedule() {
	if e.window == 0 {
		e.tiles, e.chunks = e.ws.tiles0, e.ws.chunks0
		return
	}
	T := min(max(2*e.window, 4), e.bpr)
	e.tiles = make([]int, T+1)
	for k := range e.tiles {
		e.tiles[k] = k * e.bpr / T
	}
	e.chunks = e.tiles
}

// startStream opens the chunked all-to-all on the schedule. With peers a
// goroutine drains it as chunks land; a one-rank stream carries only the
// self chunks, which await drains once the producer is done.
func (e *distExec) startStream() exch.Stream {
	e.schedule()
	ws := e.ws
	ws.sizes = grown(ws.sizes, len(e.chunks)-1)
	for k := range ws.sizes {
		ws.sizes[k] = (e.chunks[k+1] - e.chunks[k]) * e.spr
	}
	clear(ws.got)
	st := e.c.StartAlltoallv(exch.Options{Sizes: ws.sizes, Recv: ws.recv, Window: e.window})
	if e.r > 1 {
		e.drained = make(chan error, 1)
		go func() { e.drained <- e.drain(st) }()
	}
	return st
}

// await returns the stream's first per-source failure once every source
// has finished or failed; ws.got then holds each source's delivered chunk
// count.
func (e *distExec) await(st exch.Stream) error {
	if e.r == 1 {
		return e.drain(st)
	}
	return <-e.drained
}

// drain counts the chunks as the transport lands them in recv and
// returns the first per-source failure (a dead link, or a frame the wrong
// size for its slot). The flat exchange fails with it; the coded one
// treats a short count as a lost source.
func (e *distExec) drain(st exch.Stream) (err error) {
	for {
		c, ok := st.Next()
		if !ok {
			return err
		}
		if c.Err != nil {
			err = cmp.Or(err, c.Err)
			continue
		}
		if c.Src != e.rank {
			e.tr.ChunkInstant(e.tid, e.rank, "exchange_chunk_recv", c.Index)
		}
		e.ws.got[c.Src]++
	}
}

// exchange executes phases 1–3: produce over the stream, then drain it.
// A coded run fans its parity out after the producer and, once drained,
// detects losses and recovers within budget, all inside the exchange
// stage; a non-nil *DegradedError reports reconstructions. What the
// phases sent is booked on every exit.
func (e *distExec) exchange(ctx context.Context, localIn []complex128) (deg *DegradedError, err error) {
	if sc, ok := e.c.(sentCounter); ok {
		before := sc.Sent()
		defer func() { e.book(sc.Sent().Since(before), deg) }()
	}
	st := e.startStream()
	defer st.Close()

	fan, err := e.produce(ctx, st, localIn)
	prodDone := time.Now()
	e.tr.Begin(e.tid, e.rank, instrument.StageExchange.String())
	defer e.bookStream(fan, prodDone)
	if err == nil && e.cx != nil {
		err = e.cx.fanOutParity()
	}
	if err != nil {
		// A producer that bailed mid-schedule left self-delivery slots the
		// drain would otherwise wait on forever; Close aborts the tracker
		// so the drain below stays bounded. A failed parity fan-out closes
		// too, so both failures drain alike.
		st.Close()
	}

	// Drain: whatever the producer's outcome, wait for the receivers —
	// their loops are deadline-bounded, and they must be done with recv
	// before the workspace can go back to the free list. A coded run
	// drains fully before any parity receive, so a source whose stream
	// failed is known dead, by its short chunk count, before its parity
	// is asked for.
	aerr := e.await(st)
	if e.cx == nil || err != nil {
		return nil, cmp.Or(err, aerr, ctx.Err())
	}
	return e.cx.detect()
}

// fanOut is the producer's account of its chunk sends: when the first
// began and the last ended, and the time spent sending in between.
type fanOut struct {
	first, last time.Time
	wait        time.Duration
}

// bookStream closes the exchange stage: the visible exchange time is the
// fan-out itself plus the tail since the last send; the rest of the span
// from the first send on ran hidden behind compute. Window 0 sends in
// one burst after the last row, so it books nothing hidden.
func (e *distExec) bookStream(fan fanOut, prodDone time.Time) {
	if fan.last.IsZero() { // nothing was sent
		fan.first, fan.last = prodDone, prodDone
	}
	now := time.Now()
	e.dt.Exchange = fan.wait + now.Sub(fan.last)
	e.tr.End(e.tid, e.rank, instrument.StageExchange.String())
	if hidden := now.Sub(fan.first) - e.dt.Exchange; e.timed && hidden > 0 {
		e.rec.AddHiddenExchange(hidden)
	}
}
