// Package soifft is a low-communication 1-D FFT library: a Go
// implementation of the SOI (segment-of-interest) FFT framework of
// Tang, Park, Kim and Petrov, "A framework for low-communication 1-D
// FFT" (SC 2012 Best Paper).
//
// Standard distributed in-order 1-D FFTs perform three all-to-all
// exchanges; the SOI factorization needs exactly one, of (1+β)·N points,
// at the price of an oversampled convolution. On bandwidth-constrained
// systems this wins by up to 3/(1+β) (2.4× at the default β = 1/4).
//
// Three entry points:
//
//   - FFT / IFFT: plain serial transforms of any length (the built-in
//     mixed-radix/Bluestein engine, no SOI machinery).
//   - Plan.Transform: the SOI factorization executed with shared-memory
//     parallelism — the algorithm of the paper on one machine.
//   - Plan.TransformDistributed: the full distributed algorithm over a
//     simulated message-passing World with per-rank data distribution,
//     one halo exchange and a single all-to-all.
//
// Accuracy is tunable (paper Section 7.3): AccuracyFull reaches within
// one decimal digit of a conventional FFT (~290 dB SNR); lower settings
// shrink the convolution for more speed.
package soifft

import (
	"context"
	"fmt"
	"math"

	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/instrument"
	"soifft/internal/window"
)

// Accuracy selects a rung of the paper's accuracy-performance ladder.
type Accuracy int

// Accuracy levels. Full matches the paper's B = 72 configuration
// (≈14.5 digits); each step down shrinks the convolution tap count.
const (
	AccuracyFull Accuracy = iota
	Accuracy270dB
	Accuracy250dB
	Accuracy230dB
	Accuracy200dB
)

func (a Accuracy) preset() window.Preset {
	i := int(a)
	if i < 0 || i >= len(window.Presets) {
		i = 0
	}
	return window.Presets[i]
}

// String names the accuracy level.
func (a Accuracy) String() string { return a.preset().Name }

// Option configures NewPlan.
type Option func(*options)

type options struct {
	segments   int
	mu, nu     int
	taps       int
	accuracy   Accuracy
	workers    int
	useAcc     bool
	instrument InstrumentLevel
}

// WithSegments sets the segment count P (N = M·P). More segments mean
// finer distribution granularity; P must divide N. Defaults to 8, or 1
// if N is small.
func WithSegments(p int) Option { return func(o *options) { o.segments = p } }

// WithOversampling sets β = mu/nu − 1 (default 5/4, i.e. β = 1/4).
func WithOversampling(mu, nu int) Option {
	return func(o *options) { o.mu, o.nu = mu, nu }
}

// WithTaps overrides the convolution tap count B directly (the window is
// designed automatically for the chosen B and β).
func WithTaps(b int) Option { return func(o *options) { o.taps = b } }

// WithAccuracy picks a preset accuracy rung instead of explicit taps.
func WithAccuracy(a Accuracy) Option {
	return func(o *options) { o.accuracy = a; o.useAcc = true }
}

// WithWorkers bounds the goroutines used by shared-memory execution.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// Plan is a reusable SOI transform plan for a fixed length; it is safe
// for concurrent use.
type Plan struct {
	inner *core.Plan
}

// NewPlan builds an SOI plan for n-point transforms.
func NewPlan(n int, opts ...Option) (*Plan, error) {
	o := options{segments: 0, mu: 5, nu: 4, taps: 72}
	for _, fn := range opts {
		fn(&o)
	}
	if o.segments == 0 {
		o.segments = defaultSegments(n)
	}
	p := core.Params{
		N: n, P: o.segments, Mu: o.mu, Nu: o.nu, B: o.taps, Workers: o.workers,
	}
	if o.useAcc {
		pr := o.accuracy.preset()
		p.B = pr.B
		d := window.ForPreset(pr, p.Beta())
		p.Win = d.Window
	}
	// Shrink B for short segments rather than failing outright.
	if m := nSafeM(n, o.segments); p.B > m && m >= 2 {
		p.B = m
		p.Win = nil // the preset window no longer matches B
	}
	inner, err := core.NewPlan(p)
	if err != nil {
		return nil, err
	}
	inner.SetRecorder(instrument.New(instrument.Level(o.instrument)))
	return &Plan{inner: inner}, nil
}

func defaultSegments(n int) int {
	for _, p := range []int{8, 4, 2} {
		if n%p == 0 && n/p >= 32 {
			return p
		}
	}
	return 1
}

func nSafeM(n, p int) int {
	if p <= 0 || n%p != 0 {
		return 0
	}
	return n / p
}

// N returns the transform length.
func (p *Plan) N() int { return p.inner.Params().N }

// Segments returns the segment count P.
func (p *Plan) Segments() int { return p.inner.Params().P }

// Oversampling returns β.
func (p *Plan) Oversampling() float64 { return p.inner.Params().Beta() }

// Taps returns the convolution tap count B.
func (p *Plan) Taps() int { return p.inner.Params().B }

// PredictedDigits estimates the decimal digits of accuracy from the
// window metrics (paper Section 4 error characterization).
func (p *Plan) PredictedDigits() float64 { return p.inner.Metrics().Digits() }

// Transform computes dst = DFT(src) via the SOI factorization using
// shared-memory parallelism. dst and src must have length N and must not
// alias.
func (p *Plan) Transform(dst, src []complex128) error {
	return p.inner.Transform(dst, src)
}

// SegmentLen returns the length M = N/P of one frequency segment.
func (p *Plan) SegmentLen() int { return p.inner.M() }

// TransformSegment computes only the s-th frequency segment,
// dst = DFT(src)[s·M : (s+1)·M] — the paper's "segment of interest"
// pursued directly (Fig 1). dst must have length SegmentLen(). Relative
// to a full SOI transform it skips the other P−1 segment FFTs and the
// I⊗F_P batch (one dot product per block instead), leaving one
// convolution pass and a single M'-point FFT; memory for the full
// spectrum is never allocated.
func (p *Plan) TransformSegment(dst, src []complex128, s int) error {
	return p.inner.TransformSegment(dst, src, s)
}

// Inverse computes dst = IDFT(src) (scaled by 1/N) through the SOI
// factorization; Inverse(Transform(x)) == x up to the plan's accuracy.
func (p *Plan) Inverse(dst, src []complex128) error {
	return p.inner.InverseTransform(dst, src)
}

// Config is an immutable snapshot of a plan's resolved parameters —
// everything NewPlan decided, including defaults it filled in and the
// window it designed. Use it instead of reaching into internals.
type Config struct {
	// N is the transform length.
	N int
	// Segments is the segment count P; SegmentLen = N/P.
	Segments   int
	SegmentLen int
	// OversampledLen is M' = (1+β)·SegmentLen, the per-segment working
	// length; OversampledLen·Segments points cross the all-to-all.
	OversampledLen int
	// Mu/Nu is the oversampling ratio in lowest terms; Beta = Mu/Nu − 1.
	Mu, Nu int
	Beta   float64
	// Taps is the convolution tap count B (possibly shrunk from the
	// requested value for short segments).
	Taps int
	// Window names the reference window: always "tau-sigma", the
	// paper's two-parameter window (Section 4).
	Window string
	// Workers bounds shared-memory parallelism (0 = GOMAXPROCS).
	Workers int
	// PredictedDigits estimates the decimal digits of accuracy from the
	// window metrics (paper Section 4).
	PredictedDigits float64
}

// Config returns the plan's resolved parameter snapshot.
func (p *Plan) Config() Config {
	prm := p.inner.Params()
	return Config{
		N:               prm.N,
		Segments:        prm.P,
		SegmentLen:      p.inner.M(),
		OversampledLen:  p.inner.MPrime(),
		Mu:              prm.Mu,
		Nu:              prm.Nu,
		Beta:            prm.Beta(),
		Taps:            prm.B,
		Window:          "tau-sigma",
		Workers:         prm.Workers,
		PredictedDigits: p.inner.Metrics().Digits(),
	}
}

// Internal returns the underlying core plan.
//
// Deprecated: the typed accessors cover what this leaked — use Config
// for parameters, Report for per-stage timing and communication
// counters, and TransformContext/TransformSegmentContext for execution.
// Internal remains only so existing harnesses keep compiling; it will be
// removed in v2.
func (p *Plan) Internal() *core.Plan { return p.inner }

// FFT returns the forward DFT of x (any length; Bluestein handles large
// prime factors) computed by the conventional engine.
func FFT(x []complex128) ([]complex128, error) { return fft.Forward(x) }

// IFFT returns the inverse DFT of x, scaled so IFFT(FFT(x)) == x.
func IFFT(x []complex128) ([]complex128, error) { return fft.Inverse(x) }

// Validate reports whether an (n, segments, oversampling, taps)
// combination is usable, without building tables.
func Validate(n int, opts ...Option) error {
	o := options{segments: 0, mu: 5, nu: 4, taps: 72}
	for _, fn := range opts {
		fn(&o)
	}
	if o.segments == 0 {
		o.segments = defaultSegments(n)
	}
	p := core.Params{N: n, P: o.segments, Mu: o.mu, Nu: o.nu, B: o.taps}
	if o.useAcc {
		p.B = o.accuracy.preset().B
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("soifft: %w", err)
	}
	return nil
}

// TransformBatch applies the forward SOI transform to count contiguous
// vectors: transform i reads src[i*N:(i+1)*N] into dst[i*N:(i+1)*N].
// Plans are safe for concurrent use, so batches may also be split across
// goroutines by the caller.
func (p *Plan) TransformBatch(dst, src []complex128, count int) error {
	return p.TransformBatchContext(context.Background(), dst, src, count)
}

// SelfTest runs a quick built-in accuracy check: it transforms a random
// vector with the SOI plan and with the conventional engine and returns
// the measured decimal digits of agreement. Use it to verify a plan on
// the current machine.
func (p *Plan) SelfTest() (digits float64, err error) {
	n := p.N()
	src := selfTestInput(n)
	ref, err := fft.Forward(src)
	if err != nil {
		return 0, err
	}
	got := make([]complex128, n)
	if err := p.Transform(got, src); err != nil {
		return 0, err
	}
	var num, den float64
	for i := range ref {
		d := got[i] - ref[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(ref[i])*real(ref[i]) + imag(ref[i])*imag(ref[i])
	}
	if num == 0 {
		return 16, nil
	}
	return -0.5 * math.Log10(num/den), nil
}

// selfTestInput is a deterministic pseudo-random vector (xorshift) so
// SelfTest never depends on math/rand behavior across Go versions.
func selfTestInput(n int) []complex128 {
	v := make([]complex128, n)
	s := uint64(0x9E3779B97F4A7C15)
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11)/float64(1<<53)*2 - 1
	}
	for i := range v {
		v[i] = complex(next(), next())
	}
	return v
}
