package fft

import (
	"runtime"
	"sync"
)

// ForwardParallel computes the forward transform with each Stockham pass
// split across workers goroutines (GOMAXPROCS when workers <= 0). Every
// pass is data-parallel over its sub-block index and each range writes
// disjoint cells, so results are bit-identical to Forward. Useful for a
// single large transform; for many independent transforms prefer
// ParallelBatch, which parallelizes at cheaper granularity.
func (p *Plan) ForwardParallel(dst, src []complex128, workers int) {
	p.checkLen(dst, src)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if p.blue != nil || len(p.stages) == 0 || workers == 1 {
		p.Forward(dst, src)
		return
	}
	if sameSlice(dst, src) {
		tmp := p.getScratch()
		copy(tmp, src)
		p.runParallel(dst, tmp, workers)
		p.putScratch(tmp)
		return
	}
	p.runParallel(dst, src, workers)
}

// InverseParallel is ForwardParallel's inverse counterpart (1/n scaled).
func (p *Plan) InverseParallel(dst, src []complex128, workers int) {
	p.checkLen(dst, src)
	tmp := p.getScratch()
	for i, v := range src {
		tmp[i] = complex(real(v), -imag(v))
	}
	p.ForwardParallel(dst, tmp, workers)
	p.putScratch(tmp)
	inv := 1 / float64(p.n)
	for i, v := range dst {
		dst[i] = complex(real(v)*inv, -imag(v)*inv)
	}
}

func (p *Plan) runParallel(dst, src []complex128, workers int) {
	k := len(p.stages)
	if k == 1 {
		parallelStage(&p.stages[0], src, dst, workers)
		return
	}
	scratch := p.getScratch()
	defer p.putScratch(scratch)
	var x, y []complex128
	if k%2 == 1 {
		y = dst
	} else {
		y = scratch
	}
	x = src
	for i := 0; i < k; i++ {
		parallelStage(&p.stages[i], x, y, workers)
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

// parallelStage splits the pass's sub-block loop into contiguous chunks.
// Late passes have few, huge sub-blocks; early ones have many. Chunks
// below a minimum width fall back to a serial pass to avoid goroutine
// overhead dominating.
func parallelStage(st *stage, x, y []complex128, workers int) {
	m := st.m
	if workers > m {
		workers = m
	}
	// Each sub-block costs ~radix·s cell updates; skip parallelism when
	// the whole stage is small.
	if workers <= 1 || m*st.s*st.radix < 1<<14 {
		applyStage(st, x, y)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * m / workers
		hi := (w + 1) * m / workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			applyStageRange(st, x, y, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
