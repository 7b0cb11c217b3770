package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"soifft/internal/exch"
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
// The pipeline runs fused: I_M'⊗F_P and the permutation are one call per
// tile inside the convolution stage, so Transpose reports the
// accumulated time of those calls and Convolve the remainder of the
// stage wall. The demodulation is no separate step at all — the last
// F_M' pass stores only the kept bins, already multiplied by 1/ŵ — so
// its time is inside SegmentFT and Demod stays zero.
type PhaseTimes struct {
	Convolve  time.Duration // W·x, each tile's input staged on the way in
	Transpose time.Duration // I_M'⊗F_P storing straight into segment-major order
	SegmentFT time.Duration // per-segment F_M' with projection and Ŵ⁻¹ scaling fused
	Demod     time.Duration // zero: fused into SegmentFT's last pass
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

// transform is the shared-memory transform: the distributed driver on
// the one-rank nodeComm, with Params.Workers goroutines (0: GOMAXPROCS).
// At one rank the all-to-all is the stride-P permutation BatchScatter
// stores into the workspace, and each segment's F_M' reads its run there
// in place. inverse loads the conjugate of src, and the driver
// conjugates and scales the result.
func (pl *Plan) transform(ctx context.Context, dst, src []complex128, inverse bool) (PhaseTimes, error) {
	if !inverse && len(dst) == pl.prm.N && len(src) == pl.prm.N && &dst[0] == &src[0] {
		return PhaseTimes{}, fmt.Errorf("core: dst must not alias src: %w", ErrAlias)
	}
	dt, err := pl.run(ctx, nodeComm{}, distOptions{rec: pl.rec, workers: pl.nodeWorkers(), inverse: inverse}, dst, src)
	return PhaseTimes{Convolve: dt.Convolve - dt.transpose, Transpose: dt.transpose, SegmentFT: dt.SegmentFT}, err
}

// nodeWorkers is the node entry points' goroutine count: Params.Workers,
// or GOMAXPROCS when that is not positive.
func (pl *Plan) nodeWorkers() int {
	if w := pl.prm.Workers; w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// nodeComm is the one-rank world of a shared-memory transform and of a
// segment. Its all-to-all delivers nothing, because a rank's self chunk
// never leaves the send buffer, its gather returns the caller's chunk,
// and the drivers send no message at one rank.
type nodeComm struct{}

func (nodeComm) Rank() int                               { return 0 }
func (nodeComm) Size() int                               { return 1 }
func (nodeComm) StartAlltoallv(exch.Options) exch.Stream { return nodeStream{} }
func (nodeComm) Send(int, int, []complex128) error       { return errNoPeer }
func (nodeComm) RecvC(int, int) ([]complex128, error)    { return nil, errNoPeer }
func (nodeComm) RecvInto([]complex128, int, int) error   { return errNoPeer }

// Gather at root 0 is the caller's own chunk: the one rank's gather.
func (nodeComm) Gather(root int, chunk []complex128) ([]complex128, error) {
	if root != 0 {
		return nil, errNoPeer
	}
	return chunk, nil
}

var errNoPeer = fmt.Errorf("core: a shared-memory transform has no peer: %w", ErrPlanMismatch)

// nodeStream is nodeComm's all-to-all.
type nodeStream struct{}

func (nodeStream) Send(int, int, []complex128) error { return nil }
func (nodeStream) Next() (exch.Chunk, bool)          { return exch.Chunk{}, false }
func (nodeStream) Close()                            {}

// convTileRows is the tile height of the fused convolve→F_P→scatter
// stage: 256 rows × P lanes × 16 B ≈ 32 KiB per tile buffer at P = 8, so
// a tile's convolution output is still in L1/L2 when its FFTs read it.
const convTileRows = 256

// convRow8, when the package's init found a SIMD kernel this CPU and OS
// can run, computes one row for a block of eight lanes out of lanes
// (see convRow); nil leaves every row to convRowGo. It and convRows8
// are written once, before any plan exists, and never again: the
// package's kernel decisions.
var convRow8 func(out *complex128, h, x, ph *float64, taps, lanes int)

// convRows8, set on top of convRow8 where the CPU and OS also run
// AVX-512, computes four rows of one phase for a block of eight lanes
// (see convRows4); nil leaves them to four convRow calls.
var convRows8 func(out *complex128, h, x, ph *float64, taps, lanes, xstride, ostride int)

// splitBlocks, set with convRow8, stages whole blocks of a lane count
// divisible by 4: block b's lanes reals at dst[2b·lanes:], its lanes
// imaginaries XOR sign (0, or the sign bit to conjugate) after them.
// nil leaves every block to splitRun's Go loop. The two return the same
// bits: a move and a sign flip round nothing.
var splitBlocks func(dst *float64, src *complex128, blocks, lanes int, sign uint64)

// ConvolveKernel names the convolution kernel plans with P % 8 == 0 run
// on this machine: "avx512" (four rows of a phase per pass, and "avx2"
// for the rows left over), "avx2" or, where the build or the CPU has
// neither, "go" (which every other P runs regardless). All three return
// the same bits.
func ConvolveKernel() string {
	switch {
	case convRows8 != nil:
		return "avx512"
	case convRow8 != nil:
		return "avx2"
	}
	return "go"
}

// convRow computes one output row,
//
//	out[i] = ph_i · Σ_b h[b·lanes+i]·x_{b,i},
//
// from split-complex operands: x holds the row's taps as blocks of
// 2·lanes float64, block b's reals x[2b·lanes:][:lanes] then its
// imaginaries; ph holds the lanes' phase reals then imaginaries. The
// real taps multiply the reals and the imaginaries as they lie, with no
// shuffle per tap. It and convRows4 are the only callers of the
// assembly, which checks no bounds: every pointer they pass comes from
// a slice whose length they assert.
func convRow(out []complex128, h, x, ph []float64, taps, lanes int) {
	if taps < 1 || lanes < 1 || len(h) != taps*lanes || len(x) != 2*len(h) || len(out) != lanes || len(ph) != 2*lanes {
		panic("core: convRow: slab lengths do not match taps × lanes")
	}
	if convRow8 == nil || lanes%8 != 0 {
		convRowGo(out, h, x, ph, lanes)
		return
	}
	for i := 0; i < lanes; i += 8 {
		convRow8(&out[i], &h[i], &x[i], &ph[i], taps, lanes)
	}
}

// convRows4 computes four rows of one phase, which share the taps h and
// the phases ph: row k is convRow(out[k·ostride:][:lanes], h,
// x[k·xstride:][:2·taps·lanes], ph, taps, lanes), with the same bits. On
// the four-row kernel each tap row is loaded once for the four rows
// instead of once per row.
func convRows4(out []complex128, h, x, ph []float64, taps, lanes, xstride, ostride int) {
	n := taps * lanes
	if taps < 1 || lanes < 1 || xstride < 0 || ostride < 0 || len(h) != n || len(x) != 3*xstride+2*n || len(out) != 3*ostride+lanes || len(ph) != 2*lanes {
		panic("core: convRows4: slab lengths do not match taps × lanes and the row strides")
	}
	if convRows8 == nil || lanes%8 != 0 {
		for k := range 4 {
			convRow(out[k*ostride:k*ostride+lanes], h, x[k*xstride:k*xstride+2*n], ph, taps, lanes)
		}
		return
	}
	for i := 0; i < lanes; i += 8 {
		convRows8(&out[i], &h[i], &x[i], &ph[i], taps, lanes, xstride, ostride)
	}
}

// convRowGo is the portable kernel, the assembly's Go twin; both return
// the bits of the test reference convDotGo on the same data
// interleaved. Two accumulator pairs per lane (even taps, odd taps)
// break the add dependency chain; that association and the points where
// a multiply and an add fuse into one rounding — every tap's
// multiply-add, and each phase product's second multiply with its
// add/subtract — are part of the result's bits and so the contract of
// every kernel. math.FMA is correctly rounded on every architecture and
// build, so the fused points cost no portability; every other product
// is rounded before its add. At the default GOAMD64=v1 each math.FMA is
// a runtime check of the CPU's FMA bit and a branch, which makes this
// loop about 1.8× slower than the same loop unfused; at v3 it is one
// instruction. The per-lane walk is strided but the whole slab is
// L1-resident.
func convRowGo(out []complex128, h, x, ph []float64, lanes int) {
	n := len(h)
	if len(x) != 2*n || len(ph) != 2*lanes {
		panic("core: convRowGo: split slab and tap slab differ in length")
	}
	for i := range out {
		var re0, im0, re1, im1 float64
		k, o := i, i // tap b's h index b·lanes+i, its real at x[2b·lanes+i]
		for ; k+lanes < n; k, o = k+2*lanes, o+4*lanes {
			h0 := h[k]
			re0 = math.FMA(h0, x[o], re0)
			im0 = math.FMA(h0, x[o+lanes], im0)
			h1 := h[k+lanes]
			re1 = math.FMA(h1, x[o+2*lanes], re1)
			im1 = math.FMA(h1, x[o+3*lanes], im1)
		}
		if k < n {
			h0 := h[k]
			re0 = math.FMA(h0, x[o], re0)
			im0 = math.FMA(h0, x[o+lanes], im0)
		}
		pr, pi := ph[i], ph[lanes+i]
		re, im := re0+re1, im0+im1
		out[i] = complex(math.FMA(re, pr, -(im*pi)), math.FMA(re, pi, im*pr))
	}
}

// convSource is the input a convolution tile stages its window from:
// global column c ≥ col is body[c−col] while that is in range and
// tail[c−col−len(body)] past it — the input's own head on a node (the
// circular wrap), the neighbour halo on a rank. conj loads conjugates
// (the inverse's first half).
type convSource struct {
	body, tail []complex128
	col        int
	conj       bool
}

// stage writes global columns [c0, c1) of the source into buf split per
// P-block: block k's lanes reals at buf[2k·lanes:], then its lanes
// imaginaries.
func (in *convSource) stage(buf []float64, c0, c1, lanes int) {
	end := in.col + len(in.body)
	split := min(max(c0, end), c1) // first column past the body
	if c0 < split {
		splitRun(buf, 0, in.body[c0-in.col:split-in.col], lanes, in.conj)
	}
	if split < c1 {
		splitRun(buf, split-c0, in.tail[split-end:c1-end], lanes, in.conj)
	}
}

// splitRun stores src as elements e, e+1, … of a split buffer (see
// stage). Element e is lane e%lanes of block e/lanes. Whole blocks go to
// splitBlocks where there is one; it is that assembly's only caller and
// touches the last element it will write first.
func splitRun(buf []float64, e int, src []complex128, lanes int, conj bool) {
	k, i := e/lanes, e%lanes
	for len(src) > 0 {
		if blocks := len(src) / lanes; i == 0 && blocks > 0 && splitBlocks != nil && lanes%4 == 0 {
			_ = buf[2*(k+blocks)*lanes-1]
			var sign uint64
			if conj {
				sign = 1 << 63
			}
			splitBlocks(&buf[2*k*lanes], &src[0], blocks, lanes, sign)
			k, src = k+blocks, src[blocks*lanes:]
			continue
		}
		n := min(lanes-i, len(src))
		o := 2*k*lanes + i
		re, im := buf[o:o+n], buf[o+lanes:o+lanes+n]
		if conj {
			for j, v := range src[:n] {
				re[j], im[j] = real(v), -imag(v)
			}
		} else {
			for j, v := range src[:n] {
				re[j], im[j] = real(v), imag(v)
			}
		}
		src = src[n:]
		k, i = k+1, 0
	}
}

// stageLen is the split-buffer length one tile of convTileRows rows
// stages: its first and last rows' start blocks lie at most
// ⌊(convTileRows−1)·ν/μ⌋+1 apart, and the last row reads B blocks.
func (pl *Plan) stageLen() int {
	p := pl.prm
	return 2 * p.P * ((convTileRows-1)*p.Nu/p.Mu + 1 + p.B)
}

// convTile computes rows [jLo, jHi), at most convTileRows of them, into
// dst (block-major: dst[(j−jLo)·P + i]): it stages the rows' input
// window [s_jLo·P, (s_{jHi−1}+B)·P) from in into buf (stageLen long),
// then runs the rows phase by phase. The rows of phase r share its taps
// and phases, and each starts ν blocks after the one before, so they go
// through convRows4 four at a time and the last few through convRow.
func (pl *Plan) convTile(dst []complex128, buf []float64, in *convSource, jLo, jHi int) {
	p := pl.prm
	lanes, taps := p.P, p.B
	c0 := pl.rowEndCol(jLo) - taps*lanes
	in.stage(buf, c0, pl.rowEndCol(jHi-1), lanes)
	n := 2 * taps * lanes                        // one row's staged slab
	xstride, ostride := 2*p.Nu*lanes, p.Mu*lanes // from a row to its phase's next: ν blocks in, μ rows out
	for j := jLo; j < min(jLo+p.Mu, jHi); j++ {
		g, r := j/p.Mu, j%p.Mu
		h := pl.hre[r*taps*lanes : (r*taps+taps)*lanes]
		ph := pl.phase[2*r*lanes : 2*(r+1)*lanes]
		start, o := 2*((g*p.Nu+pl.dstart[r])*lanes-c0), (j-jLo)*lanes
		k := j
		for ; k+3*p.Mu < jHi; k += 4 * p.Mu {
			convRows4(dst[o:o+3*ostride+lanes], h, buf[start:start+3*xstride+n], ph, taps, lanes, xstride, ostride)
			start, o = start+4*xstride, o+4*ostride
		}
		for ; k < jHi; k += p.Mu {
			convRow(dst[o:o+lanes], h, buf[start:start+n], ph, taps, lanes)
			start, o = start+xstride, o+ostride
		}
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
// form — followed by a single complex multiply by the lane phase. The
// slab is staged tile by tile into split-complex form first, so the
// real taps multiply reals and imaginaries as they lie.
func (pl *Plan) ConvolveRange(dst, src []complex128, jLo, jHi, colOff int) {
	buf := make([]float64, pl.stageLen())
	in := convSource{body: src, col: colOff}
	for t := jLo; t < jHi; t += convTileRows {
		tEnd := min(t+convTileRows, jHi)
		pl.convTile(dst[(t-jLo)*pl.prm.P:], buf, &in, t, tEnd)
	}
}

// Demodulate converts one segment's oversampled spectrum ytilde (length
// M') into final DFT values: dst[k] = ytilde[k]/ŵ(k) for k ∈ [0, M).
// The transforms never call it: their F_M' stores these values from its
// last pass (fft.Plan.ForwardDemod), with the same bits as SegmentFFT
// followed by Demodulate.
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

// SegmentFFT runs the per-segment F_M' transform on its own, without
// the fused demodulation (exposed for kernel probes).
func (pl *Plan) SegmentFFT(dst, src []complex128) { pl.fftMP.Forward(dst, src) }

// BlockFFTBatch applies F_P to count contiguous P-blocks (exposed for
// kernel probes and the ablations in internal/bench).
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
