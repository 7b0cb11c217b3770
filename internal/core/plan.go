package core

import (
	"fmt"
	"math"

	"soifft/internal/fft"
	"soifft/internal/freelist"
	"soifft/internal/instrument"
	"soifft/internal/trace"
	"soifft/internal/window"
)

// Plan holds the precomputed tables of one SOI factorization: the weight
// tensor of the convolution operator W (μ·B·P distinct complex numbers,
// paper Fig 4, kept in factored form), the inverse demodulation samples
// 1/ŵ(k), and the two FFT sub-plans F_P and F_M'. Plans are immutable and
// safe for concurrent use.
type Plan struct {
	prm    Params
	m      int // segment length M = N/P
	mp     int // oversampled segment length M' = M·μ/ν
	np     int // oversampled total N' = M'·P
	groups int // M'/μ row groups in the convolution

	// The weight of row phase r ∈ [0,μ), tap b ∈ [0,B), lane i ∈ [0,P)
	// factors exactly into hre[(r*B+b)*P+i] · φ_{r,i}, with hre real. The
	// hot convolution kernel works on this split form — a real·complex
	// MAC is half the flops and half the tap-table traffic of the
	// complex·complex one, and all μ tap slabs (μ·B·P float64) fit in
	// L1/L2 where the full complex tensor would not. phase holds φ split
	// like the staged input: Re φ_{r,i} at phase[2rP+i], Im φ_{r,i} at
	// phase[2rP+P+i].
	hre   []float64
	phase []float64
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

	// distFree holds the idle workspaces, node runs' included (a node
	// run is the one-rank cluster). A free list, not a sync.Pool: the GC
	// never empties it and no per-P cache hides an entry, so it holds at
	// most the peak number of transforms (ranks) that ran concurrently on
	// this plan, and a warm plan never re-allocates. distOnRelease (tests
	// only) sees every workspace on its way back.
	distFree      freelist.List[*distWorkspace]
	distOnRelease func(*distWorkspace)
}

// convScratch is one worker's convolution tile: the split-complex input
// window (stageLen float64) and the convTileRows·P outputs.
type convScratch struct {
	stage []float64
	conv  []complex128
}

// newConvScratch sizes one worker's tile buffers.
func (pl *Plan) newConvScratch() convScratch {
	return convScratch{stage: make([]float64, pl.stageLen()), conv: make([]complex128, convTileRows*pl.prm.P)}
}

// distWorkspace holds every payload-sized buffer of one rank's
// transform and the run state itself, sized by the plan, the world size
// and the worker count alone (the row geometry is rank-invariant), so a
// steady-state run allocates only bookkeeping and a node run nothing. A
// run takes one from the plan's free list and puts it back only after it
// succeeded with every helper goroutine joined; a run that failed, was
// cancelled or panicked drops it, because a straggling receiver may
// still be writing into it. Nothing that outlives the call may alias
// these buffers.
type distWorkspace struct {
	r int // world size the buffers are cut for

	exec distExec // the run's state, kept here so a run allocates none

	// send is the packed exchange buffer, destination t's chunk at
	// [t·chunk, (t+1)·chunk); recv lands the chunks from the R−1 peers in
	// rank order, this rank's own staying in send. A one-rank stream
	// lands nothing, so a one-rank workspace has no recv: its send is the
	// node's segment-major array.
	send, recv []complex128
	cols       [][]complex128 // cols[src]: the chunk source src addressed to this rank
	got        []int          // chunks delivered per source

	// Rows from jMid on have taps leaving the owned block: their staged
	// window continues past the owned columns into halo, the
	// (B−1)·P-element neighbour prefix.
	jMid int
	halo []complex128

	// Window 0's schedule (see schedule), and the running exchange's chunk sizes.
	tiles0, chunks0, sizes []int

	scratch chan *rankScratch // one per worker goroutine

	parity   []complex128 // coded runs only: m parity shares of chunk elements, folded per tile by produce
	parityIn []complex128 // coded runs only: the m shares received, share i at [i·chunk, (i+1)·chunk)
}

// rankScratch is one worker's tile and segment buffers; v and xt are
// grown only by the runs that copy through them.
type rankScratch struct {
	convScratch              // a convTileRows-row tile: staged input, output before F_P
	v           []complex128 // a tile after F_P, when a stream chunk is not the whole row range
	xt          []complex128 // one segment's oversampled sequence, assembled unless it lies in send already
	img         []byte       // coded runs with m ≥ 2: a tile strip's byte images and one parity share's
}

// grown returns buf resliced to n elements, reallocating only when its
// capacity falls short (the lazily sized workspace buffers).
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// getDistWorkspace pops an idle workspace cut for r ranks with at least
// workers tile scratches, or builds one.
func (pl *Plan) getDistWorkspace(r, workers int) *distWorkspace {
	if ws, ok := pl.distFree.Get(func(ws *distWorkspace) bool { return ws.r == r && cap(ws.scratch) >= workers }); ok {
		return ws
	}

	p := pl.prm
	bpr, nLocal := pl.mp/r, p.N/r
	ws := &distWorkspace{r: r, send: make([]complex128, bpr*p.P), cols: make([][]complex128, r), got: make([]int, r)}
	for ws.jMid < bpr && pl.rowEndCol(ws.jMid) <= nLocal {
		ws.jMid++
	}
	ws.tiles0, ws.chunks0 = []int{0, ws.jMid, bpr}, []int{0, bpr}
	if r > 1 {
		ws.recv = make([]complex128, bpr*(p.P-p.P/r))
	} else { // nothing lands in recv, and no halo is in flight to overlap: one tile
		ws.tiles0 = ws.chunks0
	}
	ws.halo = make([]complex128, pl.HaloLen())
	ws.scratch = make(chan *rankScratch, workers)
	for w := 0; w < workers; w++ {
		ws.scratch <- &rankScratch{convScratch: pl.newConvScratch()}
	}
	return ws
}

// putDistWorkspace returns a workspace no goroutine references any more.
func (pl *Plan) putDistWorkspace(ws *distWorkspace) {
	if pl.distOnRelease != nil {
		pl.distOnRelease(ws)
	}
	pl.distFree.Put(ws)
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
//
// exp(iπα) = exp(iπ(α+b))·(−1)^b exactly (b integer), so the phase
// depends on (r, i) only and the tap table is real. α+b is the rational
// A/(2μP) with the integer A = 2rνP + BμP − 2·dstart[r]·μP − 2μi, which
// fft.ExpIPi reduces exactly: the float form of α+b reaches ≈ B/2, and
// π times it would carry ≈ πB/2·ε of phase error into every output. The
// taps take α itself as the rational num/den, num = A − 2bμP, den = 2μP,
// so a window that reduces its own argument (window.HTimeFrac: the τσ
// sinc's π·τ·α reaches ≈ 100 rad) sees it exactly.
func (pl *Plan) buildWeights() {
	p := pl.prm
	pl.dstart = make([]int, p.Mu)
	for r := 0; r < p.Mu; r++ {
		pl.dstart[r] = r * p.Nu / p.Mu
	}
	pl.hre = make([]float64, p.Mu*p.B*p.P)
	pl.phase = make([]float64, 2*p.Mu*p.P)
	scale := float64(p.Nu) / float64(p.Mu)
	den := 2 * p.Mu * p.P
	for r := 0; r < p.Mu; r++ {
		a := 2*r*p.Nu*p.P + p.B*p.Mu*p.P - 2*pl.dstart[r]*p.Mu*p.P
		for i := 0; i < p.P; i++ {
			ph := fft.ExpIPi(a-2*p.Mu*i, den)
			pl.phase[2*r*p.P+i], pl.phase[2*r*p.P+p.P+i] = real(ph), imag(ph)
		}
		for b := 0; b < p.B; b++ {
			sign := scale
			if b&1 == 1 {
				sign = -scale
			}
			for i := 0; i < p.P; i++ {
				num := a - 2*p.Mu*i - 2*b*p.Mu*p.P
				pl.hre[(r*p.B+b)*p.P+i] = sign * window.HTimeFrac(pl.win, num, den)
			}
		}
	}
}

// buildDemodulation fills invW[k] = 1/ŵ(k) = exp(−iπBk/M)/Ĥ((k−M/2)/M),
// the phase reduced exactly from the integer B·k (up to ≈ πB rad).
func (pl *Plan) buildDemodulation() {
	p := pl.prm
	pl.invW = make([]complex128, pl.m)
	for k := 0; k < pl.m; k++ {
		u := (float64(k) - float64(pl.m)/2) / float64(pl.m)
		hh := pl.win.HHat(u)
		pl.invW[k] = fft.ExpIPi(-p.B*k, pl.m) * complex(1/hh, 0)
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
