// Package fft implements fast Fourier transforms of complex vectors.
//
// It is the node-local FFT substrate for the SOI low-communication FFT
// (the role Intel MKL plays in the paper). The implementation is a
// self-sorting mixed-radix Stockham algorithm with hand-written kernels
// for radices 2, 3, 4, 5 and 8, a generic kernel for the remaining small
// primes, and a Bluestein chirp-z fallback for lengths containing large
// prime factors. Plans are reusable and safe for concurrent use.
//
// Conventions: the forward transform computes
//
//	y[k] = sum_j x[j] * exp(-i*2*pi*j*k/n)
//
// and Inverse applies the conjugate transform scaled by 1/n, so that
// Inverse(Forward(x)) == x up to rounding.
package fft

import (
	"fmt"
	"math"
	"math/cmplx"

	"soifft/internal/freelist"
)

// maxSmallPrime is the largest prime handled by the generic mixed-radix
// kernel; lengths with larger prime factors go through Bluestein.
const maxSmallPrime = 31

// stage describes one mixed-radix Stockham pass.
type stage struct {
	radix int
	m     int          // transform sub-length after this stage's split
	s     int          // number of interleaved sequences (stride)
	tw    []complex128 // twiddles, indexed [p*(radix-1) + (u-1)]
	wr    []complex128 // radix-point roots for the generic kernel (nil for 2..5)
}

// Plan holds precomputed tables for transforms of a fixed length.
// A Plan may be shared freely between goroutines.
type Plan struct {
	n       int
	stages  []stage
	codelet codeletFunc                 // non-nil for tiny n: direct unrolled DFT
	blue    *bluestein                  // non-nil when the length needs the chirp-z path
	scratch freelist.List[[]complex128] // idle length-n buffers
}

// NewPlan creates a transform plan for length n.
func NewPlan(n int) (*Plan, error) {
	if n <= 0 {
		return nil, fmt.Errorf("fft: length must be positive, got %d", n)
	}
	p := &Plan{n: n}
	radices, rem := factorize(n)
	if rem != 1 {
		b, err := newBluestein(n)
		if err != nil {
			return nil, err
		}
		p.blue = b
		return p, nil
	}
	p.stages = buildStages(n, radices)
	p.codelet = codeletFor(n)
	return p, nil
}

// N returns the transform length the plan was built for.
func (p *Plan) N() int { return p.n }

// factorize splits n into a radix sequence preferring radix 8, then 4,
// then 2 for the power-of-two part (fewer, wider passes mean fewer
// memory sweeps), then odd small primes in increasing order. The second
// return value is the cofactor left after removing all primes <=
// maxSmallPrime.
func factorize(n int) (radices []int, rem int) {
	rem = n
	e2 := 0
	for rem%2 == 0 {
		rem /= 2
		e2++
	}
	for ; e2 >= 3; e2 -= 3 {
		radices = append(radices, 8)
	}
	if e2 == 2 {
		radices = append(radices, 4)
	}
	if e2 == 1 {
		radices = append(radices, 2)
	}
	for f := 3; f <= maxSmallPrime; f += 2 {
		for rem%f == 0 {
			rem /= f
			radices = append(radices, f)
		}
	}
	return radices, rem
}

// buildStages precomputes per-stage twiddle tables for the Stockham passes.
func buildStages(n int, radices []int) []stage {
	stages := make([]stage, len(radices))
	cur, s := n, 1
	for i, r := range radices {
		m := cur / r
		st := stage{radix: r, m: m, s: s}
		st.tw = make([]complex128, m*(r-1))
		theta := -2 * math.Pi / float64(cur)
		for q := 0; q < m; q++ {
			for u := 1; u < r; u++ {
				ang := theta * float64(q*u)
				st.tw[q*(r-1)+u-1] = cmplx.Exp(complex(0, ang))
			}
		}
		if r > 5 && r != 8 {
			st.wr = make([]complex128, r)
			for t := 0; t < r; t++ {
				ang := -2 * math.Pi * float64(t) / float64(r)
				st.wr[t] = cmplx.Exp(complex(0, ang))
			}
		}
		stages[i] = st
		cur = m
		s *= r
	}
	return stages
}

// getScratch pops an idle length-n buffer, or makes one; putScratch
// returns it.
func (p *Plan) getScratch() []complex128 {
	if b, ok := p.scratch.Get(nil); ok {
		return b
	}
	return make([]complex128, p.n)
}

func (p *Plan) putScratch(b []complex128) { p.scratch.Put(b) }

// Forward computes the forward DFT of src into dst. dst and src must both
// have length n; they may be the same slice, or must not overlap.
func (p *Plan) Forward(dst, src []complex128) {
	p.checkLen(dst, src)
	if p.codelet != nil { // reads everything before writing: in-place safe
		p.codelet(dst, src)
		return
	}
	if p.blue != nil {
		p.blue.transform(dst, src)
		return
	}
	if len(p.stages) == 0 { // n == 1
		dst[0] = src[0]
		return
	}
	if sameSlice(dst, src) {
		tmp := p.getScratch()
		copy(tmp, src)
		p.run(dst, tmp)
		p.putScratch(tmp)
		return
	}
	p.run(dst, src)
}

// Inverse computes the inverse DFT of src into dst, scaled by 1/n so that
// a forward-inverse round trip reproduces the input.
func (p *Plan) Inverse(dst, src []complex128) {
	p.checkLen(dst, src)
	tmp := p.getScratch()
	for i, v := range src {
		tmp[i] = cmplx.Conj(v)
	}
	p.Forward(dst, tmp)
	p.putScratch(tmp)
	inv := 1 / float64(p.n)
	for i, v := range dst {
		dst[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

func (p *Plan) checkLen(dst, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic(fmt.Sprintf("fft: plan length %d, got dst %d src %d", p.n, len(dst), len(src)))
	}
}

func sameSlice(a, b []complex128) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// run executes the Stockham passes, reading src on the first pass and
// arranging the ping-pong so the final pass writes into dst.
func (p *Plan) run(dst, src []complex128) {
	k := len(p.stages)
	if k == 1 {
		// Single pass: no ping-pong buffer needed.
		applyStage(&p.stages[0], src, dst)
		return
	}
	scratch := p.getScratch()
	defer p.putScratch(scratch)

	// Choose the first target so that pass k lands in dst.
	var x, y []complex128
	if k%2 == 1 {
		y = dst
	} else {
		y = scratch
	}
	x = src
	for i := 0; i < k; i++ {
		applyStage(&p.stages[i], x, y)
		if i == 0 {
			if k%2 == 1 {
				x, y = dst, scratch
			} else {
				x, y = scratch, dst
			}
		} else {
			x, y = y, x
		}
	}
}

// applyStage performs one radix-r Stockham pass: the array is viewed as s
// interleaved sequences of length radix*m; element (q, t) of sub-block p
// lives at x[lane + s*(p + m*t)].
func applyStage(st *stage, x, y []complex128) {
	applyStageRange(st, x, y, 0, st.m)
}

// applyStageRange runs the pass for sub-blocks [lo, hi) only; disjoint
// ranges touch disjoint output cells, so ranges may run concurrently.
func applyStageRange(st *stage, x, y []complex128, lo, hi int) {
	if st.s == 1 {
		// The first pass of every plan runs at stride 1: its inner lane
		// loop is a single iteration, so dedicated kernels that read the
		// m-strided inputs directly (no per-block slicing) win big — this
		// pass has the most sub-blocks of any in the plan.
		switch st.radix {
		case 2:
			stageRadix2S1(st, x, y, lo, hi)
			return
		case 4:
			stageRadix4S1(st, x, y, lo, hi)
			return
		case 8:
			stageRadix8S1(st, x, y, stageFirst8(st, x, y, lo, hi), hi)
			return
		}
	}
	if k := laneKernel(st); k != nil {
		stageLanes(k, st, x, y, lo, hi)
		return
	}
	switch st.radix {
	case 2:
		stageRadix2(st, x, y, lo, hi)
	case 3:
		stageRadix3(st, x, y, lo, hi)
	case 4:
		stageRadix4(st, x, y, lo, hi)
	case 5:
		stageRadix5(st, x, y, lo, hi)
	case 8:
		stageRadix8(st, x, y, lo, hi)
	default:
		stageGeneric(st, x, y, lo, hi)
	}
}
