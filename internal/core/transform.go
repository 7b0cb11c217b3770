package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"soifft/internal/instrument"
	"soifft/internal/trace"
)

// tracerFor resolves the tracer and trace ID for one execution: a
// tracer carried by the context (per-request, race-free on shared
// plans) wins over the plan's own. Both may be nil/zero — the tracer's
// nil-safe methods make that the free path.
func (pl *Plan) tracerFor(ctx context.Context) (*trace.Tracer, trace.ID) {
	if t := trace.TracerFrom(ctx); t != nil {
		return t, trace.IDFrom(ctx)
	}
	return pl.tr, trace.IDFrom(ctx)
}

// PhaseTimes records wall time per pipeline stage of one transform; it
// feeds the performance-model calibration and the op-count ablation
// (paper Section 7.4 measures convolution time ≈ FFT time within SOI).
//
// The shared-memory pipeline runs fused (I_M'⊗F_P and the permutation
// are one call per tile inside the convolution pass, demodulation runs
// segment by segment inside the FFT pass), so Transpose and Demod report
// the accumulated time of those fused slices and Convolve/SegmentFT the
// remainder of their pass walls.
type PhaseTimes struct {
	Convolve  time.Duration // W·x (plus the input copy and halo extension)
	Transpose time.Duration // I_M'⊗F_P storing straight into segment-major order
	SegmentFT time.Duration // per-segment F_M'
	Demod     time.Duration // projection + Ŵ⁻¹ scaling
}

// Total returns the sum over phases.
func (t PhaseTimes) Total() time.Duration {
	return t.Convolve + t.Transpose + t.SegmentFT + t.Demod
}

// Transform computes dst = DFT(src) through the SOI factorization using
// shared-memory parallelism. dst and src must have length N and must not
// alias.
func (pl *Plan) Transform(dst, src []complex128) error {
	_, err := pl.transform(context.Background(), dst, src, false)
	return err
}

// TransformContext is Transform with cancellation checks at stage
// boundaries: when ctx is cancelled the pipeline stops before its next
// stage and returns ctx.Err(). A stage already running completes (stages
// are pure compute; the longest is a fraction of the transform).
func (pl *Plan) TransformContext(ctx context.Context, dst, src []complex128) error {
	_, err := pl.transform(ctx, dst, src, false)
	return err
}

// TransformTimed is Transform with per-phase wall-time reporting.
func (pl *Plan) TransformTimed(dst, src []complex128) (PhaseTimes, error) {
	return pl.transform(context.Background(), dst, src, false)
}

// transform is the shared-memory pipeline; conj loads the conjugate of
// src instead (the inverse's first half).
func (pl *Plan) transform(ctx context.Context, dst, src []complex128, conj bool) (PhaseTimes, error) {
	var pt PhaseTimes
	p := pl.prm
	if len(src) != p.N || len(dst) != p.N {
		return pt, fmt.Errorf("core: need len %d, got dst %d src %d: %w", p.N, len(dst), len(src), ErrLength)
	}
	if !conj && len(src) > 0 && len(dst) > 0 && &dst[0] == &src[0] {
		return pt, fmt.Errorf("core: dst must not alias src: %w", ErrAlias)
	}
	if err := ctx.Err(); err != nil {
		return pt, err
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rec := pl.rec
	timed := rec.Timing()
	tr, tid := pl.tracerFor(ctx)

	// Extend the input with its own head so tap windows never wrap: this
	// is the shared-memory stand-in for the neighbour halo exchange.
	t0 := time.Now()
	tr.Begin(tid, 0, instrument.StageHalo.String())
	ws := pl.getWorkspace()
	defer pl.ws.Put(ws)
	xext := ws.ext
	if conj {
		conjInto(xext, src)
	} else {
		copy(xext, src)
	}
	copy(xext[p.N:], xext[:pl.HaloLen()])
	tr.End(tid, 0, instrument.StageHalo.String())

	// Pass A — stages 1+2+3 fused per tile: convolution, P-point FFTs and
	// the stride-P scatter into segment-major layout run tile by tile, so
	// each tile's FFT and permutation read convolution output that is
	// still cache-hot, and (with workers > 1) the FFT/scatter of one tile
	// overlaps the convolution of the next across goroutines. The
	// standalone full-array transpose sweep of the unfused pipeline is
	// gone.
	ws.busyConv.Store(0)
	ws.nsScatter.Store(0)
	ws.busySeg.Store(0)
	ws.nsDemod.Store(0)
	tr.Begin(tid, 0, instrument.StageConvolve.String())
	if workers <= 1 {
		pl.convPass(ws, 0, pl.mp, timed)
	} else {
		parfor(workers, pl.mp, func(jLo, jHi int) {
			pl.convPass(ws, jLo, jHi, timed)
		})
	}
	pt.Transpose = time.Duration(ws.nsScatter.Load())
	pt.Convolve = time.Since(t0) - pt.Transpose
	tr.End(tid, 0, instrument.StageConvolve.String())
	if err := ctx.Err(); err != nil {
		return pt, err
	}

	// Pass B — stages 4+5 fused per segment: the M'-point FFT of segment
	// s feeds straight into its demodulation while the spectrum is hot.
	t0 = time.Now()
	tr.Begin(tid, 0, instrument.StageSegmentFFT.String())
	if workers <= 1 {
		pl.segPass(ws, dst, 0, p.P, timed)
	} else {
		parfor(workers, p.P, func(sLo, sHi int) {
			pl.segPass(ws, dst, sLo, sHi, timed)
		})
	}
	pt.Demod = time.Duration(ws.nsDemod.Load())
	pt.SegmentFT = time.Since(t0) - pt.Demod
	tr.End(tid, 0, instrument.StageSegmentFFT.String())

	if rec.On() {
		rec.AddTransform()
		wall := pt
		if !timed {
			wall = PhaseTimes{} // counters level: events and FLOPs only
		}
		rec.ObserveStage(instrument.StageConvolve, wall.Convolve,
			time.Duration(ws.busyConv.Load()), workers, pl.convStageFlops())
		rec.ObserveStage(instrument.StageExchange, wall.Transpose, 0, workers, 0)
		rec.ObserveStage(instrument.StageSegmentFFT, wall.SegmentFT,
			time.Duration(ws.busySeg.Load()), workers, pl.segmentStageFlops())
		rec.ObserveStage(instrument.StageDemod, wall.Demod, 0, workers, pl.demodStageFlops())
	}
	return pt, nil
}

// convTileRows is the tile height of the fused convolve→F_P→scatter
// pass: 256 rows × P lanes × 16 B ≈ 32 KiB per tile buffer at P = 8, so
// a tile's convolution output is still in L1/L2 when its FFTs read it.
const convTileRows = 256

// convPass runs the fused stage-1/2/3 pipeline for rows [jLo, jHi):
// convolve a tile of rows, then one BatchScatter applies the P-point FFTs
// and stores lane s of row j at seg[s·M'+j] — the codelet's stores are
// the stride-P permutation. Disjoint row ranges scatter to disjoint
// cells of seg, so ranges may run concurrently; per-call timing lands in
// the workspace atomics.
func (pl *Plan) convPass(ws *workspace, jLo, jHi int, timed bool) {
	var w0 time.Time
	if timed {
		w0 = time.Now()
	}
	tile := <-ws.tiles
	defer func() { ws.tiles <- tile }()
	var scat int64
	for t := jLo; t < jHi; t += convTileRows {
		tEnd := min(t+convTileRows, jHi)
		pl.ConvolveRange(tile, ws.ext, t, tEnd, 0)
		s0 := time.Now()
		pl.fftP.BatchScatter(ws.seg[t:], tile, tEnd-t, pl.mp)
		scat += int64(time.Since(s0))
	}
	ws.nsScatter.Add(scat)
	if timed {
		ws.busyConv.Add(int64(time.Since(w0)))
	}
}

// segPass runs the fused stage-4/5 pipeline for segments [sLo, sHi):
// each segment's M'-point FFT feeds its demodulation immediately.
func (pl *Plan) segPass(ws *workspace, dst []complex128, sLo, sHi int, timed bool) {
	var w0 time.Time
	if timed {
		w0 = time.Now()
	}
	var dem int64
	for s := sLo; s < sHi; s++ {
		pl.fftMP.Forward(ws.yb[s*pl.mp:(s+1)*pl.mp], ws.seg[s*pl.mp:(s+1)*pl.mp])
		d0 := time.Now()
		pl.Demodulate(dst[s*pl.m:(s+1)*pl.m], ws.yb[s*pl.mp:(s+1)*pl.mp])
		dem += int64(time.Since(d0))
	}
	ws.nsDemod.Add(dem)
	if timed {
		ws.busySeg.Add(int64(time.Since(w0)))
	}
}

// convBlock8, when the package's init found a SIMD kernel this CPU and OS
// can run, computes one row for a block of eight lanes out of stride; nil
// leaves every row to convDotGo. It is written once, before any plan
// exists, and never again: the one kernel decision of the package.
var convBlock8 func(out *complex128, h *float64, x, ph *complex128, taps, stride int)

// ConvolveKernel names the convolution kernel plans with P % 8 == 0 run
// on this machine: "avx2" or, where the build or the CPU has none, "go"
// (which every other P runs regardless). The two return the same bits.
func ConvolveKernel() string {
	if convBlock8 != nil {
		return "avx2"
	}
	return "go"
}

// convDot computes out[i] = ph[i] · Σ_b h[b·lanes+i]·x[b·lanes+i] for
// each lane. h and x are one row's contiguous tap slab (len B·lanes).
// It is the only caller of the assembly, which checks no bounds: every
// pointer it passes comes from a slice whose length is asserted here.
func convDot(out []complex128, h []float64, x, ph []complex128, taps, lanes int) {
	if taps < 1 || lanes < 1 || len(h) != taps*lanes || len(x) != len(h) || len(out) != lanes || len(ph) != lanes {
		panic("core: convDot: slab lengths do not match taps × lanes")
	}
	if convBlock8 == nil || lanes%8 != 0 {
		convDotGo(out, h, x, ph, lanes)
		return
	}
	for i := 0; i < lanes; i += 8 {
		convBlock8(&out[i], &h[i], &x[i], &ph[i], taps, lanes)
	}
}

// convDotGo is the portable kernel and the reference the assembly must
// match bit for bit. The per-lane walk is lanes-strided but the whole
// slab is L1-resident. Two accumulator pairs per lane (even taps, odd
// taps) break the add dependency chain; that association is part of the
// result's bits, so it is the contract of every other kernel too.
func convDotGo(out []complex128, h []float64, x, ph []complex128, lanes int) {
	n := len(h)
	if len(x) != n { // also what lets the compiler drop x's bounds checks below
		panic("core: convDotGo: input slab and tap slab differ in length")
	}
	step := 2 * lanes
	for i := range out {
		var re0, im0, re1, im1 float64
		k := i
		for ; k+lanes < n; k += step {
			h0, x0 := h[k], x[k]
			re0 += h0 * real(x0)
			im0 += h0 * imag(x0)
			h1, x1 := h[k+lanes], x[k+lanes]
			re1 += h1 * real(x1)
			im1 += h1 * imag(x1)
		}
		if k < n {
			h0, x0 := h[k], x[k]
			re0 += h0 * real(x0)
			im0 += h0 * imag(x0)
		}
		p := ph[i]
		re, im := re0+re1, im0+im1
		out[i] = complex(re*real(p)-im*imag(p), re*imag(p)+im*real(p))
	}
}

// ConvolveRange computes output blocks j ∈ [jLo, jHi) of the convolution
// W·x into dst (block-major: dst[(j−jLo)*P + i]). src is a contiguous
// window of the input starting at global column colOff; it must cover
// every tap of the requested rows, i.e. global columns
// [s_jLo·P, (s_{jHi−1}+B)·P). The caller supplies halo data past its own
// range; ConvolveRange never wraps indices.
//
// Each output element is a length-B stride-P inner product with one of μ
// weight rows (paper Section 6, loops a–d).
//
// The kernel exploits the exact factorization of the weight tensor into
// a real tap table and a per-(r, i) phase (see buildWeights): each lane
// is a real·complex dot product over one contiguous B·P input slab —
// half the arithmetic and half the table traffic of the complex MAC
// form — followed by a single complex multiply by the lane phase.
func (pl *Plan) ConvolveRange(dst, src []complex128, jLo, jHi, colOff int) {
	p := pl.prm
	lanes, taps := p.P, p.B
	g, r := jLo/p.Mu, jLo%p.Mu
	for j := jLo; j < jHi; j++ {
		start := (g*p.Nu+pl.dstart[r])*lanes - colOff
		h := pl.hre[r*taps*lanes : (r*taps+taps)*lanes]
		xs := src[start : start+taps*lanes]
		ph := pl.phase[r*lanes : (r+1)*lanes]
		out := dst[(j-jLo)*lanes : (j-jLo+1)*lanes]
		convDot(out, h, xs, ph, taps, lanes)
		if r++; r == p.Mu {
			g, r = g+1, 0
		}
	}
}

// Demodulate converts one segment's oversampled spectrum ytilde (length
// M') into final DFT values: dst[k] = ytilde[k]/ŵ(k) for k ∈ [0, M).
func (pl *Plan) Demodulate(dst, ytilde []complex128) {
	for k := 0; k < pl.m; k++ {
		dst[k] = ytilde[k] * pl.invW[k]
	}
}

// convStageFlops estimates the arithmetic of the fused convolve + I⊗F_P
// stage of one full transform.
func (pl *Plan) convStageFlops() int64 {
	return pl.ConvFlops() + int64(5*float64(pl.np)*math.Log2(float64(pl.prm.P)))
}

// segmentStageFlops estimates the arithmetic of the per-segment F_M'
// batch of one full transform.
func (pl *Plan) segmentStageFlops() int64 {
	return int64(5 * float64(pl.np) * math.Log2(float64(pl.mp)))
}

// demodStageFlops estimates the arithmetic of the demodulation stage
// (one complex multiply per output point).
func (pl *Plan) demodStageFlops() int64 {
	return int64(pl.prm.N) * 6
}

// SegmentFFT runs the per-segment F_M' transform (exposed for the
// distributed driver).
func (pl *Plan) SegmentFFT(dst, src []complex128) { pl.fftMP.Forward(dst, src) }

// BlockFFTBatch applies F_P to count contiguous P-blocks (exposed for
// the distributed driver).
func (pl *Plan) BlockFFTBatch(dst, src []complex128, count int) {
	pl.fftP.Batch(dst, src, count)
}

// parfor splits [0, n) into one contiguous span per worker.
func parfor(workers, n int, fn func(lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * n / workers
		hi := (w + 1) * n / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
