package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"soifft/internal/fft"
	"soifft/internal/instrument"
)

// TransformSegment computes a single frequency segment
// y[s·M : (s+1)·M] from the full input — the direct "pursuit of a
// segment of interest" of paper Fig 1. Instead of the I⊗F_P batch it
// evaluates only lane s of each block's P-point DFT (a dot product with
// the s-th DFT row), so the cost is the shared convolution plus one
// M'-point FFT: far cheaper than a full transform when only part of the
// spectrum is wanted.
func (pl *Plan) TransformSegment(dst, src []complex128, s int) error {
	return pl.TransformSegmentContext(context.Background(), dst, src, s)
}

// TransformSegmentContext is TransformSegment with cancellation checks
// between the convolution and the segment FFT.
func (pl *Plan) TransformSegmentContext(ctx context.Context, dst, src []complex128, s int) error {
	p := pl.prm
	if s < 0 || s >= p.P {
		return fmt.Errorf("core: segment %d out of range [0, %d): %w", s, p.P, ErrSegmentRange)
	}
	if len(src) != p.N || len(dst) != pl.m {
		return fmt.Errorf("core: need src %d dst %d, got %d/%d: %w", p.N, pl.m, len(src), len(dst), ErrLength)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rec := pl.rec
	timed := rec.Timing()
	var t0 time.Time
	if timed {
		t0 = time.Now()
	}

	// x̃^(s)[j] = Σ_i ω^{si} · (W_j x)[i], fused with the convolution;
	// the tap windows wrap past N into the input's head.
	row := fpRow(s, p.P)
	in := convSource{body: src, tail: src[:pl.HaloLen()]}
	xt := make([]complex128, pl.mp)
	parfor(workers, pl.mp, func(jLo, jHi int) {
		pl.segmentLane(xt[jLo:jHi], &in, row, jLo, jHi)
	})
	var convWall time.Duration
	if timed {
		convWall = time.Since(t0)
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	if timed {
		t0 = time.Now()
	}
	pl.fftMP.ForwardDemod(dst, xt, pl.invW)
	if rec.On() {
		var segWall time.Duration
		if timed {
			segWall = time.Since(t0)
		}
		// Segment pursuit: the convolution runs in full, but only one
		// lane of each P-point DFT is evaluated (2 flops per real op of
		// an 8-flop complex MAC ⇒ row dot product ≈ mp·P·8).
		rec.ObserveStage(instrument.StageConvolve, convWall, 0, workers,
			pl.ConvFlops()+int64(pl.mp)*int64(p.P)*8)
		rec.ObserveStage(instrument.StageSegmentFFT, segWall, 0, 1,
			int64(5*float64(pl.mp)*math.Log2(float64(pl.mp))))
	}
	return nil
}

// RunDistributedSegment computes one frequency segment over the
// communicator: every rank contributes its local convolution blocks'
// lane-s dot products, and rank `root` gathers the M' values, runs the
// segment FFT and demodulates. Communication is a single gather of M'/R
// points per rank plus the usual halo — far below even the SOI
// transform's all-to-all. Returns the segment (length M) on root, nil on
// other ranks. An observed run books the halo and gather payloads it
// sent as messages.
func (pl *Plan) RunDistributedSegment(c Comm, localIn []complex128, s, root int) ([]complex128, error) {
	p := pl.prm
	r := c.Size()
	if err := pl.ValidateDistributed(r); err != nil {
		return nil, err
	}
	if sc, ok := c.(sentCounter); ok && pl.rec.On() {
		before := sc.Sent()
		defer func() { bookMessages(pl.rec, sc.Sent().Since(before)) }()
	}
	if s < 0 || s >= p.P {
		return nil, fmt.Errorf("core: segment %d out of range [0, %d): %w", s, p.P, ErrSegmentRange)
	}
	if root < 0 || root >= r {
		return nil, fmt.Errorf("core: root %d out of range [0, %d): %w", root, r, ErrPlanMismatch)
	}
	nLocal := p.N / r
	if len(localIn) != nLocal {
		return nil, fmt.Errorf("core: rank %d: need local length %d, got %d: %w", c.Rank(), nLocal, len(localIn), ErrLength)
	}
	rank := c.Rank()
	halo := pl.HaloLen()
	bpr := pl.mp / r

	// Halo exchange, through RunDistributed's routine.
	tail := localIn[:halo] // one rank: the circular wrap into its own head
	if r > 1 {
		tail = make([]complex128, halo)
		hs, err := startHalo(c, localIn, tail, false, nil, 0)
		if err == nil {
			err = hs.wait()
		}
		if err != nil {
			return nil, err
		}
	}

	// Local blocks' lane-s values: one convolution pass and a dot product
	// with the s-th DFT row per block.
	jLo := rank * bpr
	part := make([]complex128, bpr)
	pl.segmentLane(part, &convSource{body: localIn, tail: tail, col: rank * nLocal}, fpRow(s, p.P), jLo, jLo+bpr)

	xt, err := c.Gather(root, part)
	if err != nil || rank != root {
		return nil, err
	}
	out := make([]complex128, pl.m)
	pl.fftMP.ForwardDemod(out, xt, pl.invW)
	return out, nil
}

// fpRow returns the s-th row of F_n, ω^{s·i} with ω = e^{−2πi/n}, each
// entry from its exactly reduced argument (so ω^{n/4} is exactly −i).
func fpRow(s, n int) []complex128 {
	row := make([]complex128, n)
	for i := range row {
		row[i] = fft.ExpIPi(-2*(s*i%n), n)
	}
	return row
}

// segmentLane sets xt[j−jLo] = Σ_i row[i]·(W_j x)[i] for rows
// [jLo, jHi): one lane of each block's P-point DFT, computed tile by
// tile while the tile's convolution output is hot.
func (pl *Plan) segmentLane(xt []complex128, in *convSource, row []complex128, jLo, jHi int) {
	lanes := pl.prm.P
	sc := pl.newConvScratch()
	for t := jLo; t < jHi; t += convTileRows {
		tEnd := min(t+convTileRows, jHi)
		pl.convTile(sc.conv, sc.stage, in, t, tEnd)
		for j := t; j < tEnd; j++ {
			var acc complex128
			for i, w := range row {
				acc += w * sc.conv[(j-t)*lanes+i]
			}
			xt[j-jLo] = acc
		}
	}
}
