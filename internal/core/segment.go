package core

import (
	"context"
	"fmt"
	"math"
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
// between the convolution and the segment FFT: the segment driver on the
// one-rank nodeComm, with Params.Workers goroutines (0: GOMAXPROCS).
func (pl *Plan) TransformSegmentContext(ctx context.Context, dst, src []complex128, s int) error {
	if len(dst) != pl.m {
		return fmt.Errorf("core: need dst %d, got %d: %w", pl.m, len(dst), ErrLength)
	}
	_, err := pl.segment(ctx, nodeComm{}, pl.nodeWorkers(), dst, src, s, 0)
	return err
}

// RunDistributedSegment computes one frequency segment over the
// communicator: every rank contributes its local convolution blocks'
// lane-s dot products, and rank `root` gathers the M' values, runs the
// segment FFT and demodulates. Communication is a single gather of M'/R
// points per rank plus the usual halo — far below even the SOI
// transform's all-to-all. Returns the segment (length M) on root, nil on
// other ranks. Each rank uses Params.Workers goroutines, at least one.
func (pl *Plan) RunDistributedSegment(c Comm, localIn []complex128, s, root int) ([]complex128, error) {
	return pl.segment(context.Background(), c, max(pl.prm.Workers, 1), nil, localIn, s, root)
}

// segment is the one segment driver: halo, the lane-s values of this
// rank's mp/R convolution rows, one gather to root, and there the
// segment FFT and demodulation into dst (a new slice when dst is nil).
// It returns the segment on root and nil elsewhere. An observed run books
// the halo and gather payloads this rank sent as messages, its 1/R share
// of the convolve stage and, on root, the segment_fft stage.
func (pl *Plan) segment(ctx context.Context, c Comm, workers int, dst, localIn []complex128, s, root int) ([]complex128, error) {
	p := pl.prm
	r, rank := c.Size(), c.Rank()
	if err := pl.ValidateDistributed(r); err != nil {
		return nil, err
	}
	if s < 0 || s >= p.P {
		return nil, fmt.Errorf("core: segment %d out of range [0, %d): %w", s, p.P, ErrSegmentRange)
	}
	if root < 0 || root >= r {
		return nil, fmt.Errorf("core: root %d out of range [0, %d): %w", root, r, ErrPlanMismatch)
	}
	nLocal := p.N / r
	if len(localIn) != nLocal {
		return nil, fmt.Errorf("core: rank %d: need local length %d, got %d: %w", rank, nLocal, len(localIn), ErrLength)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rec := pl.rec
	if sc, ok := c.(sentCounter); ok && rec.On() {
		before := sc.Sent()
		defer func() { bookMessages(rec, sc.Sent().Since(before)) }()
	}

	// Halo exchange, through RunDistributed's routine. One rank's halo is
	// its own head, the circular wrap.
	tail := localIn[:pl.HaloLen()]
	if r > 1 {
		tail = make([]complex128, len(tail))
		hs, err := startHalo(c, localIn, tail, false, nil, 0)
		if err == nil {
			err = hs.wait()
		}
		if err != nil {
			return nil, err
		}
	}

	// x̃^(s)[j] = Σ_i ω^{si} · (W_j x)[i] for this rank's rows, fused with
	// the convolution.
	t0 := time.Now()
	bpr := pl.mp / r
	jLo := rank * bpr
	in := convSource{body: localIn, tail: tail, col: rank * nLocal}
	row := fpRow(s, p.P)
	part := make([]complex128, bpr)
	parfor(workers, bpr, func(a, b int) {
		pl.segmentLane(part[a:b], &in, row, jLo+a, jLo+b)
	})
	convWall := time.Since(t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	xt, err := c.Gather(root, part)
	if err != nil {
		return nil, err
	}
	var segWall time.Duration
	if rank == root {
		t0 = time.Now()
		if dst == nil {
			dst = make([]complex128, pl.m)
		}
		pl.fftMP.ForwardDemod(dst, xt, pl.invW)
		segWall = time.Since(t0)
	}
	if !rec.Timing() {
		convWall, segWall = 0, 0
	}
	// The convolution runs in full, but only one lane of each P-point DFT
	// is evaluated (2 flops per real op of an 8-flop complex MAC ⇒ row dot
	// product ≈ mp·P·8); this rank did 1/R of it.
	rec.ObserveStage(instrument.StageConvolve, convWall, 0, workers,
		(pl.ConvFlops()+int64(pl.mp)*int64(p.P)*8)/int64(r))
	if rank != root {
		return nil, nil
	}
	rec.ObserveStage(instrument.StageSegmentFFT, segWall, 0, 1,
		int64(5*float64(pl.mp)*math.Log2(float64(pl.mp))))
	return dst, nil
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
