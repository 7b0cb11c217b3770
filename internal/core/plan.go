package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"runtime"
	"sync"
	"sync/atomic"

	"soifft/internal/fft"
	"soifft/internal/instrument"
	"soifft/internal/trace"
	"soifft/internal/window"
)

// Plan holds the precomputed tables of one SOI factorization: the weight
// tensor of the convolution operator W (μ·B·P distinct complex numbers,
// paper Fig 4), the inverse demodulation samples 1/ŵ(k), and the two FFT
// sub-plans F_P and F_M'. Plans are immutable and safe for concurrent use.
type Plan struct {
	prm    Params
	m      int // segment length M = N/P
	mp     int // oversampled segment length M' = M·μ/ν
	np     int // oversampled total N' = M'·P
	groups int // M'/μ row groups in the convolution

	// wt is the weight tensor, indexed wt[(r*B+b)*P+i] for row phase
	// r ∈ [0,μ), tap b ∈ [0,B), lane i ∈ [0,P).
	wt []complex128
	// The weight tensor factors exactly: wt[(r,b,i)] =
	// hre[(r*B+b)*P+i] · phase[r*P+i], with hre real. The hot
	// convolution kernel works on this split form — a real·complex MAC
	// is half the flops and half the tap-table traffic of the
	// complex·complex one, and all μ tap slabs (μ·B·P float64) fit in
	// L1/L2 where the full complex tensor does not.
	hre   []float64
	phase []complex128
	// dstart[r] = ⌊r·ν/μ⌋, the extra start-block offset of row phase r.
	dstart []int
	// invW[k] = 1/ŵ(k) for k ∈ [0,M): the demodulation diagonal.
	invW []complex128

	fftP  *fft.Plan
	fftMP *fft.Plan

	win     window.Window
	metrics window.Metrics

	// rec is the optional observability sink; nil (the default) keeps
	// every execution path at its uninstrumented cost apart from one
	// pointer test per stage.
	rec *instrument.Recorder

	// tr is the optional event tracer, with the same nil-is-free
	// contract as rec; a tracer on the context overrides it.
	tr *trace.Tracer

	ws sync.Pool // *workspace, reused across Transform calls

	// distFree holds the distributed driver's idle per-rank workspaces.
	// A mutex-guarded list, not a second sync.Pool: the GC never empties
	// it and no per-P cache hides entries, so it holds at most the peak
	// number of ranks that ran concurrently on this plan, and a warm rank
	// never re-allocates. distOnRelease (tests only) sees every workspace
	// on its way back.
	distMu        sync.Mutex
	distFree      []*distWorkspace
	distOnRelease func(*distWorkspace)
}

// workspace holds the per-transform scratch buffers and timing cells so
// steady-state Transform calls allocate nothing (the serial path is
// exactly zero allocations; with workers > 1 only goroutine bookkeeping
// remains). The atomics live here rather than on the stack because the
// parallel path's closures would otherwise force a heap allocation per
// transform.
type workspace struct {
	ext []complex128 // input + halo, N + (B−1)P
	seg []complex128 // segment-major permutation, N'
	yb  []complex128 // segment spectra, N'

	// tiles holds one convTileRows-row tile per worker goroutine: a tile's
	// convolution output lives only until F_P scatters it into seg, so it
	// never leaves the cache. Sized when the workspace is built; a pass
	// that runs more workers than that (GOMAXPROCS raised since) queues
	// for a tile.
	tiles chan []complex128

	busyConv, nsScatter atomic.Int64 // pass A worker busy / scatter slices
	busySeg, nsDemod    atomic.Int64 // pass B worker busy / demod slices
}

// distWorkspace holds every payload-sized buffer one rank's distributed
// transform needs, sized by the plan and the world size alone (the row
// geometry is rank-invariant), so a steady-state RunDistributed allocates
// only bookkeeping. A run takes one from the plan's free list and puts it
// back only after it succeeded with every helper goroutine joined; a run
// that failed, was cancelled or panicked drops it, because a straggling
// receiver may still be writing into it. Nothing that outlives the call
// may alias these buffers.
type distWorkspace struct {
	r int // world size the buffers are cut for

	// send is the packed exchange buffer, destination t's chunk at
	// [t·chunk, (t+1)·chunk); recv receives every exchange in the same
	// layout, source s's chunk at [s·chunk, (s+1)·chunk). N'/R each.
	send, recv []complex128

	// Rows from jMid on have taps leaving the owned block and read stitch:
	// the owned tail from local column stitchCol onward, then the
	// (B−1)·P-element neighbour halo.
	jMid, stitchCol int
	stitch          []complex128

	scratch chan *rankScratch // one per worker goroutine

	conj     []complex128 // inverse runs only: the conjugated input
	parity   []complex128 // coded runs only: m parity shares of chunk elements
	parityIn []complex128 // coded runs only: the m shares received, share i at [i·chunk, (i+1)·chunk)
	code     []byte       // coded runs only: one strip of share byte images
}

// rankScratch is one worker's tile and segment buffers.
type rankScratch struct {
	conv, v []complex128 // a convTileRows-row tile before and after F_P
	xt, yt  []complex128 // one segment's oversampled sequence and spectrum
}

// grown returns buf resliced to n elements, reallocating only when its
// capacity falls short (the lazily sized workspace buffers).
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// getDistWorkspace pops an idle workspace cut for r ranks, or builds one.
func (pl *Plan) getDistWorkspace(r int) *distWorkspace {
	pl.distMu.Lock()
	for i, ws := range pl.distFree {
		if ws.r == r {
			last := len(pl.distFree) - 1
			pl.distFree[i], pl.distFree[last] = pl.distFree[last], nil
			pl.distFree = pl.distFree[:last]
			pl.distMu.Unlock()
			return ws
		}
	}
	pl.distMu.Unlock()

	p := pl.prm
	bpr, nLocal := pl.mp/r, p.N/r
	ws := &distWorkspace{r: r, send: make([]complex128, bpr*p.P), recv: make([]complex128, bpr*p.P), stitchCol: nLocal}
	for ws.jMid < bpr && pl.rowEndCol(ws.jMid) <= nLocal {
		ws.jMid++
	}
	if ws.jMid < bpr {
		ws.stitchCol = pl.rowEndCol(ws.jMid) - p.B*p.P
	}
	ws.stitch = make([]complex128, nLocal-ws.stitchCol+pl.HaloLen())
	ws.scratch = make(chan *rankScratch, max(p.Workers, 1))
	for w := 0; w < cap(ws.scratch); w++ {
		ws.scratch <- &rankScratch{
			conv: make([]complex128, convTileRows*p.P), v: make([]complex128, convTileRows*p.P),
			xt: make([]complex128, pl.mp), yt: make([]complex128, pl.mp),
		}
	}
	return ws
}

// putDistWorkspace returns a workspace no goroutine references any more.
func (pl *Plan) putDistWorkspace(ws *distWorkspace) {
	if pl.distOnRelease != nil {
		pl.distOnRelease(ws)
	}
	pl.distMu.Lock()
	pl.distFree = append(pl.distFree, ws)
	pl.distMu.Unlock()
}

// NewPlan validates p, designs a window if none is given, and precomputes
// all tables.
func NewPlan(p Params) (*Plan, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Design returns its window's metrics; only a caller's window is
	// analysed here.
	var metrics window.Metrics
	if p.Win == nil {
		d := window.Design(p.B, p.Beta(), 1e3)
		p.Win, metrics = d.Window, d.Metrics
	} else {
		metrics = window.Analyze(p.Win, p.Beta(), p.B)
	}
	m := p.N / p.P
	mp := m / p.Nu * p.Mu
	pl := &Plan{
		prm:     p,
		m:       m,
		mp:      mp,
		np:      mp * p.P,
		groups:  mp / p.Mu,
		win:     p.Win,
		metrics: metrics,
	}
	var err error
	if pl.fftP, err = fft.CachedPlan(p.P); err != nil {
		return nil, fmt.Errorf("core: F_P plan: %w", err)
	}
	if pl.fftMP, err = fft.CachedPlan(mp); err != nil {
		return nil, fmt.Errorf("core: F_M' plan: %w", err)
	}
	pl.buildWeights()
	pl.buildDemodulation()
	pl.ws.New = func() any {
		workers := pl.prm.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		ws := &workspace{
			ext:   make([]complex128, pl.prm.N+pl.HaloLen()),
			seg:   make([]complex128, pl.np),
			yb:    make([]complex128, pl.np),
			tiles: make(chan []complex128, workers),
		}
		for w := 0; w < workers; w++ {
			ws.tiles <- make([]complex128, convTileRows*pl.prm.P)
		}
		return ws
	}
	return pl, nil
}

// buildWeights fills the μ·B·P weight tensor. For output row j = g·μ + r
// and tap block b, lane i, the convolution weight is
//
//	(1/M')·w(j/M' − (s_j+b)/M − i/N),  s_j = g·ν + dstart[r],
//
// where w(t) = M·exp(iπM(t+t₀))·H(M(t+t₀)), t₀ = B/(2M), is the
// time-domain window of ŵ(u) = exp(iπBPu/N)·Ĥ((u−M/2)/M). In the scaled
// variable α = M·(t+t₀) the dependence on g cancels:
//
//	α = r·ν/μ − (dstart[r]+b) − i/P + B/2
//	weight = (ν/μ)·exp(iπα)·H(α)
func (pl *Plan) buildWeights() {
	p := pl.prm
	pl.dstart = make([]int, p.Mu)
	for r := 0; r < p.Mu; r++ {
		pl.dstart[r] = r * p.Nu / p.Mu
	}
	pl.wt = make([]complex128, p.Mu*p.B*p.P)
	pl.hre = make([]float64, p.Mu*p.B*p.P)
	pl.phase = make([]complex128, p.Mu*p.P)
	scale := float64(p.Nu) / float64(p.Mu)
	for r := 0; r < p.Mu; r++ {
		rOff := float64(r)*scale + float64(p.B)/2 - float64(pl.dstart[r])
		// exp(iπα) = exp(iπ(rOff−i/P)) · (−1)^b exactly (b integer), so
		// the phase depends on (r, i) only and the tap table is real.
		for i := 0; i < p.P; i++ {
			pl.phase[r*p.P+i] = cmplx.Exp(complex(0, math.Pi*(rOff-float64(i)/float64(p.P))))
		}
		for b := 0; b < p.B; b++ {
			sign := scale
			if b&1 == 1 {
				sign = -scale
			}
			for i := 0; i < p.P; i++ {
				alpha := rOff - float64(b) - float64(i)/float64(p.P)
				h := pl.win.HTime(alpha)
				phase := cmplx.Exp(complex(0, math.Pi*alpha))
				pl.wt[(r*p.B+b)*p.P+i] = complex(scale*h, 0) * phase
				pl.hre[(r*p.B+b)*p.P+i] = sign * h
			}
		}
	}
}

// buildDemodulation fills invW[k] = 1/ŵ(k) = exp(−iπBk/M)/Ĥ((k−M/2)/M).
func (pl *Plan) buildDemodulation() {
	p := pl.prm
	pl.invW = make([]complex128, pl.m)
	for k := 0; k < pl.m; k++ {
		u := (float64(k) - float64(pl.m)/2) / float64(pl.m)
		hh := pl.win.HHat(u)
		phase := cmplx.Exp(complex(0, -math.Pi*float64(p.B)*float64(k)/float64(pl.m)))
		pl.invW[k] = phase * complex(1/hh, 0)
	}
}

// Params returns the parameters the plan was built with (window resolved).
func (pl *Plan) Params() Params { return pl.prm }

// SetRecorder attaches (or, with nil, detaches) an observability
// recorder. The recorder itself is concurrency-safe, but SetRecorder is
// a plain pointer write: install it before sharing the plan across
// goroutines, not while transforms are in flight.
func (pl *Plan) SetRecorder(r *instrument.Recorder) { pl.rec = r }

// Recorder returns the attached recorder (nil when observability is off).
func (pl *Plan) Recorder() *instrument.Recorder { return pl.rec }

// SetTracer attaches (or, with nil, detaches) an event tracer: each
// transform then emits begin/end spans per pipeline stage. Like
// SetRecorder this is a plain pointer write — install before sharing
// the plan. Execution paths also honor a tracer carried by the
// context (trace.WithTracer), which wins over the plan's own and is
// the race-free way to trace individual requests on a shared plan.
func (pl *Plan) SetTracer(t *trace.Tracer) { pl.tr = t }

// Tracer returns the attached tracer (nil when tracing is off).
func (pl *Plan) Tracer() *trace.Tracer { return pl.tr }

// M returns the segment length N/P.
func (pl *Plan) M() int { return pl.m }

// MPrime returns the oversampled segment length M' = (1+β)M.
func (pl *Plan) MPrime() int { return pl.mp }

// NPrime returns the oversampled total length N' = (1+β)N; this is the
// volume of the single all-to-all.
func (pl *Plan) NPrime() int { return pl.np }

// rowEndCol returns the exclusive upper global column index read by
// convolution row j: (s_j + B)·P with s_j the row's start block.
func (pl *Plan) rowEndCol(j int) int {
	p := pl.prm
	sj := (j/p.Mu)*p.Nu + pl.dstart[j%p.Mu]
	return (sj + p.B) * p.P
}

// HaloLen returns how many elements beyond an input range the convolution
// reads: the taps of the last local output row extend (B−1)·P elements
// past the owned block (paper Fig 4's "(B−ν)P from its adjacent node",
// counted conservatively).
func (pl *Plan) HaloLen() int { return (pl.prm.B - 1) * pl.prm.P }

// Metrics reports the window accuracy metrics (κ, ε_alias, ε_trunc) of
// the plan's window at its (B, β).
func (pl *Plan) Metrics() window.Metrics { return pl.metrics }

// PredictedError is the paper's error-scale estimate κ(ε_fft+ε_alias+ε_trunc).
func (pl *Plan) PredictedError() float64 { return pl.metrics.TotalError() }

// ConvFlops counts the real floating-point operations of the convolution
// W·x (8 per complex multiply-add), the "extra" arithmetic SOI pays.
func (pl *Plan) ConvFlops() int64 {
	return int64(pl.np) * int64(pl.prm.B) * 8
}

// FFTFlops estimates the arithmetic of the FFT stages by the usual
// 5·n·log2(n) convention, over all P-point and M'-point sub-transforms.
func (pl *Plan) FFTFlops() int64 {
	lgP := math.Log2(float64(pl.prm.P))
	lgMP := math.Log2(float64(pl.mp))
	return int64(5*float64(pl.np)*lgP) + int64(5*float64(pl.np)*lgMP)
}
