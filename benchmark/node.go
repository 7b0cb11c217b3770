package main

import (
	"fmt"
	"math"
	"time"

	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/instrument"
)

// Every plan in the benchmark is the paper's favourite configuration:
// μ/ν = 5/4 (β = 1/4), P = 8 segments, B = 72 taps.
const (
	planP, planMu, planNu, planB = 8, 5, 4, 72
	ranks                        = 2 // this box has two cores: never more ranks than cores
)

func planParams(n, workers int) core.Params {
	return core.Params{N: n, P: planP, Mu: planMu, Nu: planNu, B: planB, Workers: workers}
}

// fftFlops is the usual 5·n·log2(n) operation count of one n-point FFT.
func fftFlops(n int) float64 { return 5 * float64(n) * math.Log2(float64(n)) }

// nodeShm is core.Plan.Transform on one core: kernel-bound, no
// transport.
type nodeShm struct {
	n         int
	pl        *core.Plan
	planBuild time.Duration
}

func newNodeShm(n int) *nodeShm { return &nodeShm{n: n} }

func (w *nodeShm) name() string       { return wNodeShm }
func (w *nodeShm) size() int          { return w.n }
func (w *nodeShm) close()             {}
func (w *nodeShm) model() byteModel   { return byteModel{} }
func (w *nodeShm) bitReference() bool { return false }

func (w *nodeShm) setup() error {
	t0 := time.Now()
	pl, err := core.NewPlan(planParams(w.n, 1))
	if err != nil {
		return err
	}
	w.planBuild = time.Since(t0)
	w.pl = pl
	return nil
}

func (w *nodeShm) run(tr *tracer, op int, out, x []complex128) (opResult, error) {
	root := tr.begin("op", op, -1, 0)
	sp := tr.begin("core.Plan.TransformTimed", op, root, 0)
	t0 := time.Now()
	pt, err := w.pl.TransformTimed(out, x)
	wall := time.Since(t0)
	tr.end(sp)
	tr.end(root)
	return opResult{wall: wall, phases: pt}, err
}

func (w *nodeShm) layers(lc *layerCtx) error {
	v := lc.vals
	v.set("core.plan_build_ms", ms(w.planBuild), 1)

	// The phases TransformTimed returned, and what of the wall they
	// leave over (workspace checkout, the halo copy, the call itself).
	var conv, trans, seg, demod, rest []float64
	for _, r := range lc.traced {
		conv = append(conv, ms(r.phases.Convolve))
		trans = append(trans, ms(r.phases.Transpose))
		seg = append(seg, ms(r.phases.SegmentFT))
		demod = append(demod, ms(r.phases.Demod))
		rest = append(rest, ms(r.wall-r.phases.Total()))
	}
	parts := []part{
		{"core.shm_convolve_ms", median(conv)}, {"core.shm_transpose_ms", median(trans)},
		{"core.shm_segment_ms", median(seg)}, {"core.shm_demod_ms", median(demod)},
		{"core.shm_remainder_ms", median(rest)},
	}
	for _, p := range parts {
		v.set(p.name, p.ms, len(lc.traced))
	}
	lc.note(reconcile(lc.plainP50, parts))

	if err := kernelProbes(lc, w.pl, w.n, 1); err != nil {
		return err
	}

	// Workers:2 against Workers:1 on the same input.
	pl2, err := core.NewPlan(planParams(w.n, 2))
	if err != nil {
		return err
	}
	x, out := lc.ins[0].x, make([]complex128, w.n)
	var w2 []float64
	for rep := 0; rep < lc.rc.sc.probeReps; rep++ {
		w2 = append(w2, lc.call("core.Plan.Transform[workers=2]", func() { err = pl2.Transform(out, x) }))
		if err != nil {
			return err
		}
	}
	v.set("core.shm_scaling_eff_w2", lc.plainP50/(2*median(w2)), len(w2))

	// The same transform with stage timers on, interleaved with it off.
	plT, err := core.NewPlan(planParams(w.n, 1))
	if err != nil {
		return err
	}
	plT.SetRecorder(instrument.New(instrument.LevelTimers))
	var on, off []float64
	for rep := 0; rep < lc.rc.sc.probeReps; rep++ {
		off = append(off, lc.call("core.Plan.Transform", func() { err = w.pl.Transform(out, x) }))
		if err != nil {
			return err
		}
		on = append(on, lc.call("core.Plan.Transform[timers]", func() { err = plT.Transform(out, x) }))
		if err != nil {
			return err
		}
	}
	v.set("instrument.timers_overhead_pct", 100*(median(on)/median(off)-1), len(on))
	return nil
}

// kernelProbes times the kernels by direct calls at the shape rank 0 of
// r sees (r = 1: the whole transform), plus the plain single-threaded
// FFT of the same N as the baseline.
func kernelProbes(lc *layerCtx, pl *core.Plan, n, r int) error {
	v, reps := lc.vals, lc.rc.sc.probeReps
	mach := measureMachine(lc.rc.sc.streamCap)
	v.set("machine.stream_gbs", mach.streamGBs, 3)
	v.set("machine.cmac_gflops", mach.cmacGflops, 3)
	v.set("machine.llc_mb", float64(mach.llcBytes)/1e6, 1)
	lc.note(mach.note())

	x := lc.ins[0].x
	mp, m, halo := pl.MPrime(), pl.M(), pl.HaloLen()
	nLocal, rows := n/r, mp/r
	ext := make([]complex128, nLocal+halo) // rank 0's block and the next rank's prefix
	copy(ext, x[:nLocal])
	for i := 0; i < halo; i++ {
		ext[nLocal+i] = x[(nLocal+i)%n]
	}
	conv := make([]complex128, rows*planP)
	blocks := make([]complex128, rows*planP)

	var convMs, batchMs, segMs, demodMs, fwdMs []float64
	for rep := 0; rep < reps; rep++ {
		convMs = append(convMs, lc.call("core.Plan.ConvolveRange", func() {
			pl.ConvolveRange(conv, ext, 0, rows, 0)
		}))
		batchMs = append(batchMs, lc.call("core.Plan.BlockFFTBatch", func() {
			pl.BlockFFTBatch(blocks, conv, rows)
		}))
	}
	// ConvFlops is the repository's nominal count, 8 per complex
	// multiply-add; the kernel's taps are real, so it executes half of
	// that, and the roofline fraction is of what it executes.
	nominal := float64(pl.ConvFlops()) / float64(r)
	executed := nominal / 2
	// Computed, not measured: the input window read once, the output
	// written once, the real tap table and the lane phases.
	convBytes := float64(16*(nLocal+halo) + 16*rows*planP + 8*planMu*planB*planP + 16*planMu*planP)
	perMs := 1 / (median(convMs) * 1e6)
	roof := math.Min(mach.cmacGflops, mach.streamGBs*executed/convBytes)
	v.set("core.convolve_ms", median(convMs), reps)
	v.set("core.convolve_gflops", nominal*perMs, reps)
	v.set("core.convolve_bytes_computed", convBytes, 1)
	v.set("core.convolve_roofline_frac", executed*perMs/roof, reps)
	v.set("fft.batch_P_gflops", float64(rows)*fftFlops(planP)/(median(batchMs)*1e6), reps)
	lc.note(fmt.Sprintf("convolve: %.2f GF/s executed (real taps: half the nominal count) at %.0f flops per computed byte; roofline %.2f GF/s, the lower of complex-MAC peak and copy bandwidth x intensity",
		executed*perMs, executed/convBytes, roof))

	// One rank's share of the P segments: F_M' then demodulation.
	segs := planP / r
	xt := append([]complex128(nil), blocks[:mp]...)
	yt := make([]complex128, mp)
	seg := make([]complex128, m)
	for rep := 0; rep < reps; rep++ {
		var s, d float64
		for i := 0; i < segs; i++ {
			s += lc.call("core.Plan.SegmentFFT", func() { pl.SegmentFFT(yt, xt) })
			d += lc.call("core.Plan.Demodulate", func() { pl.Demodulate(seg, yt) })
		}
		segMs, demodMs = append(segMs, s), append(demodMs, d)
	}
	v.set("core.segment_fft_ms", median(segMs), reps)
	v.set("core.segment_fft_gflops", float64(segs)*fftFlops(mp)/(median(segMs)*1e6), reps)
	v.set("core.demodulate_ms", median(demodMs), reps)

	fp, err := fft.NewPlan(n)
	if err != nil {
		return err
	}
	dst := make([]complex128, n)
	for rep := 0; rep < reps; rep++ {
		fwdMs = append(fwdMs, lc.call("fft.Plan.Forward", func() { fp.Forward(dst, x) }))
	}
	v.set("fft.forward_N_ms", median(fwdMs), reps)
	v.set("fft.forward_gflops", fftFlops(n)/(median(fwdMs)*1e6), reps)
	return nil
}
