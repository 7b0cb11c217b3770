package core

import (
	"cmp"
	"context"
	"time"

	"soifft/internal/adapt"
	"soifft/internal/exch"
	"soifft/internal/instrument"
)

// This file is the streamed (async pipelined) variant of the distributed
// driver: instead of convolving every block and then blocking in one
// monolithic all-to-all, the producer fans phase-1/2 output out
// tile-by-tile while later tiles are still convolving, and the transport
// decodes each arriving chunk straight into the workspace's recv, in the
// blocking exchange's layout, which phase 4 gathers from. Wire time
// hides behind compute; DistributedTimes.Exchange reports only the
// un-hidden remainder (send backpressure plus the post-compute drain
// tail), and the overlapped span is booked via Recorder.AddHiddenExchange.
//
// The chunk schedule is derived identically on every rank from the plan
// and the world size alone: tile k covers convolution blocks
// [bounds[k], bounds[k+1]), and the chunk for (src→dst, k) is lanes
// [bounds[k]·spr, bounds[k+1]·spr) of dst's per-source chunk — a
// contiguous span of the same packed buffer the blocking exchange sends,
// so the streamed chunks partition the blocking payload exactly (same
// bytes, same analytic 16·(1+β)·N·(R−1)/R budget) and the spectra are
// bit-identical for every window.

// tileBounds splits this rank's bpr convolution blocks into T tiles,
// T = min(bpr, max(4, 2·window)): enough tiles to keep the window busy,
// never more than one block each. bounds has T+1 entries.
//
// The schedule must come out identical on every rank — receivers size
// the expected chunks from their own bounds. A fixed WithAsyncWindow(w)
// is rank-invariant by construction; under the adaptive controller the
// per-rank windows diverge between transforms, so the schedule is
// pinned to the controller's rank-invariant ceiling (the world size)
// and the live window steers only the per-destination credit depth.
func (e *distExec) tileBounds() []int {
	w := e.window
	if e.adaptive {
		w = max(e.r, 2)
	}
	T := min(max(2*w, 4), e.bpr)
	bounds := make([]int, T+1)
	for k := 0; k <= T; k++ {
		bounds[k] = k * e.bpr / T
	}
	return bounds
}

// startStream opens the chunked all-to-all on the tile schedule, tile k
// of source src landing in recv at src·chunk + bounds[k]·spr, and starts
// draining it: done yields the first per-source failure, and got holds
// each source's delivered chunk count, once every source has finished or
// failed.
func (e *distExec) startStream() (st exch.Stream, bounds, got []int, done <-chan error) {
	bounds = e.tileBounds()
	sizes := make([]int, len(bounds)-1)
	for k := range sizes {
		sizes[k] = (bounds[k+1] - bounds[k]) * e.spr
	}
	st = e.c.StartAlltoallv(exch.Options{Sizes: sizes, Recv: e.ws.recv, Window: e.window})
	got, ch := make([]int, e.r), make(chan error, 1)
	go func() { ch <- e.drain(st, got) }()
	return st, bounds, got, ch
}

// drain counts the chunks as the transport lands them in recv and
// returns the first per-source failure (a dead link, or a frame the wrong
// size for its slot). The flat exchange fails with it; the coded one
// treats a short count as a lost source.
func (e *distExec) drain(st exch.Stream, got []int) (err error) {
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
		got[c.Src]++
	}
}

// exchangeStreamed executes phases 1–3 with the chunked overlapped
// exchange.
func (e *distExec) exchangeStreamed(ctx context.Context, localIn []complex128) error {
	st, bounds, _, done := e.startStream()
	defer st.Close()

	e.tr.Counter(e.tid, e.rank, "adaptive_window", int64(e.window))
	streamStart := time.Now()

	sendWait, perr := e.produce(ctx, st, bounds, localIn, nil)
	if perr != nil {
		// A producer that bailed mid-schedule left self-delivery slots the
		// drain would otherwise wait on forever; Close aborts the tracker
		// so the drain below stays bounded.
		st.Close()
	}

	// Drain: whatever the producer's outcome, wait for the receivers —
	// their loops are deadline-bounded, and they must be done with recv
	// before the workspace can go back to the free list.
	prodDone := time.Now()
	e.tr.Begin(e.tid, e.rank, instrument.StageExchange.String())
	err := cmp.Or(perr, <-done, ctx.Err())
	e.bookStream(streamStart, prodDone, sendWait, err == nil)
	return err
}

// bookStream closes a streamed exchange's stage: the visible exchange
// time is the send backpressure plus the tail since the producer
// finished; everything else of the stream's span ran hidden behind
// compute. A run that completed feeds the adaptive controller.
func (e *distExec) bookStream(start, prodDone time.Time, sendWait time.Duration, completed bool) {
	e.dt.Exchange = sendWait + time.Since(prodDone)
	e.tr.End(e.tid, e.rank, instrument.StageExchange.String())
	hidden := max(time.Since(start)-e.dt.Exchange, 0)
	if e.timed && hidden > 0 {
		e.rec.AddHiddenExchange(hidden)
	}
	if completed && e.adaptive {
		e.observeAdaptive(hidden, sendWait)
	}
}

// observeAdaptive feeds this run's measured overlap back to the plan's
// window controller so the next transform starts at the adapted window.
// Called only on successful streamed runs whose window the controller
// chose (never for an explicit WithAsyncWindow); the decision is traced
// with bounded-cardinality names so long campaigns don't grow the
// tracer's interned-name table.
func (e *distExec) observeAdaptive(hidden, sendWait time.Duration) {
	visible := e.dt.Exchange
	m := adapt.Measurement{Window: e.window}
	if total := hidden + visible; total > 0 {
		m.OverlapRatio = float64(hidden) / float64(total)
	}
	if visible > 0 {
		m.StallShare = min(float64(sendWait)/float64(visible), 1)
	}
	if e.dt.Convolve > 0 {
		m.WireComputeRatio = float64(hidden+visible) / float64(e.dt.Convolve)
	}
	d := e.pl.adaptObserve(e.rank, m)
	e.tr.Counter(e.tid, e.rank, "adaptive_window", int64(d.Window))
	if d.Changed {
		e.tr.ChunkInstant(e.tid, e.rank, "adaptive_decision", d.Window)
	}
}
