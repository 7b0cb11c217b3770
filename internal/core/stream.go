package core

import (
	"context"
	"fmt"
	"time"

	"soifft/internal/adapt"
	"soifft/internal/exch"
	"soifft/internal/instrument"
)

// This file is the streamed (async pipelined) variant of the distributed
// driver: instead of convolving every block and then blocking in one
// monolithic all-to-all, the producer fans phase-1/2 output out
// tile-by-tile while later tiles are still convolving, and a consumer
// goroutine scatters chunks into phase-4 layout as they land. Wire time
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
		if w = e.r; w < 2 {
			w = 2
		}
	}
	T := 2 * w
	if T < 4 {
		T = 4
	}
	if T > e.bpr {
		T = e.bpr
	}
	bounds := make([]int, T+1)
	for k := 0; k <= T; k++ {
		bounds[k] = k * e.bpr / T
	}
	return bounds
}

// startStream opens the chunked all-to-all on the tile schedule.
func (e *distExec) startStream() (st exch.Stream, bounds []int) {
	bounds = e.tileBounds()
	sizes := make([]int, len(bounds)-1)
	for k := range sizes {
		sizes[k] = (bounds[k+1] - bounds[k]) * e.spr
	}
	return e.c.StartAlltoallv(exch.Options{Sizes: sizes, Window: e.window}), bounds
}

// exchangeStreamed executes phases 1–3 with the chunked overlapped
// exchange, leaving phase 4's input in xcol.
func (e *distExec) exchangeStreamed(ctx context.Context, xcol, localIn []complex128) error {
	st, bounds := e.startStream()
	defer st.Close()

	e.tr.Counter(e.tid, e.rank, "adaptive_window", int64(e.window))
	streamStart := time.Now()

	// xcol is segment-major: segment ss's oversampled sequence is the
	// contiguous xcol[ss·mp, (ss+1)·mp), with source src's block j at offset
	// src·bpr+j — exactly the xt vector the blocking phase4 gathers,
	// assembled here by the consumer while later chunks are still on the
	// wire.
	consErr := make(chan error, 1)
	go func() { consErr <- e.consumeStream(st, bounds, xcol) }()

	sendWait, perr := e.produce(ctx, st, bounds, localIn, nil)
	if perr != nil {
		// A producer that bailed mid-schedule left self-delivery slots the
		// consumer would otherwise wait on forever; Close aborts the
		// tracker so the drain below stays bounded.
		st.Close()
	}

	// Drain: whatever the producer's outcome, wait for the consumer — its
	// receive loops are deadline-bounded, and it must be done with xcol
	// before the workspace can go back to the free list. The visible
	// exchange time is the send backpressure plus this tail; everything
	// else ran behind compute.
	prodDone := time.Now()
	e.tr.Begin(e.tid, e.rank, instrument.StageExchange.String())
	cerr := <-consErr
	e.tr.End(e.tid, e.rank, instrument.StageExchange.String())
	e.dt.Exchange = sendWait + time.Since(prodDone)
	hidden := time.Since(streamStart) - e.dt.Exchange
	if hidden < 0 {
		hidden = 0
	}
	if e.timed && hidden > 0 {
		e.rec.AddHiddenExchange(hidden)
	}

	if perr != nil {
		return perr
	}
	if cerr != nil {
		return cerr
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.adaptive {
		e.observeAdaptive(hidden, sendWait)
	}
	return nil
}

// consumeStream scatters arriving chunks into the column-major phase-4
// buffer — the receive side of the stride-P transpose, overlapped with
// the wire. The first per-source failure is returned (after the stream
// drains; the tracker retires a failed source's remaining slots).
func (e *distExec) consumeStream(st exch.Stream, bounds []int, xcol []complex128) error {
	mp := e.pl.mp
	var firstErr error
	for {
		c, ok := st.Next()
		if !ok {
			return firstErr
		}
		if c.Err != nil {
			if firstErr == nil {
				firstErr = c.Err
			}
			continue
		}
		lo, hi := bounds[c.Index], bounds[c.Index+1]
		if len(c.Data) != (hi-lo)*e.spr {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: rank %d: stream chunk %d from %d has %d elements, want %d: %w",
					e.rank, c.Index, c.Src, len(c.Data), (hi-lo)*e.spr, ErrLength)
			}
			continue
		}
		e.tr.ChunkInstant(e.tid, e.rank, "exchange_chunk_recv", c.Index)
		for j := lo; j < hi; j++ {
			row := c.Data[(j-lo)*e.spr : (j-lo+1)*e.spr]
			for ss, val := range row {
				xcol[ss*mp+c.Src*e.bpr+j] = val
			}
		}
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
		m.StallShare = float64(sendWait) / float64(visible)
		if m.StallShare > 1 {
			m.StallShare = 1
		}
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
