package fft

import (
	"fmt"
	"sync"
)

// Batch applies the plan's forward transform to count contiguous vectors:
// transform i reads src[i*n:(i+1)*n] and writes dst[i*n:(i+1)*n].
func (p *Plan) Batch(dst, src []complex128, count int) {
	p.checkBatch(dst, src, count)
	n := p.n
	if c := p.codelet; c != nil {
		// Tiny transforms: one indirect call per vector, no per-call
		// length checks or stage dispatch. This is the I⊗F_P hot loop of
		// the SOI pipeline (count ≈ M' calls per transform); at n = 8 the
		// SIMD kernel takes the rows two at a time first.
		i := 0
		if n == 8 {
			i = dft8Rows(dst, src, count, 8, 1)
		}
		for ; i < count; i++ {
			c(dst[i*n:(i+1)*n], src[i*n:(i+1)*n])
		}
		return
	}
	for i := 0; i < count; i++ {
		p.Forward(dst[i*n:(i+1)*n], src[i*n:(i+1)*n])
	}
}

// BatchScatter is Batch with the outputs transposed on the way out:
// dst[u*stride+i] = F_n(src[i*n:(i+1)*n])[u], so each output index u
// fills a contiguous run of count elements, stride apart. It is the
// I⊗F_P stage fused with the stride-P permutation of the SOI pipeline
// (dst = the segment-major array at the tile's first row, stride = M').
// dst must not overlap src.
func (p *Plan) BatchScatter(dst, src []complex128, count, stride int) {
	n := p.n
	if count < 0 || stride < count || len(src) < count*n || (count > 0 && len(dst) < (n-1)*stride+count) {
		panic(fmt.Sprintf("fft: scatter of %d x %d at stride %d needs src %d dst %d, got src %d dst %d",
			count, n, stride, count*n, (n-1)*stride+count, len(src), len(dst)))
	}
	i := 0
	if n == 8 {
		i = dft8Rows(dst, src, count, 1, stride)
	}
	if i == count {
		return
	}
	row, c := p.getScratch(), p.codelet
	defer p.putScratch(row)
	for ; i < count; i++ {
		if c != nil { // as in Batch: no per-row checks or dispatch
			c(row, src[i*n:(i+1)*n])
		} else {
			p.Forward(row, src[i*n:(i+1)*n])
		}
		for u, v := range row {
			dst[u*stride+i] = v
		}
	}
}

// InverseBatch is Batch for the inverse transform.
func (p *Plan) InverseBatch(dst, src []complex128, count int) {
	p.checkBatch(dst, src, count)
	n := p.n
	for i := 0; i < count; i++ {
		p.Inverse(dst[i*n:(i+1)*n], src[i*n:(i+1)*n])
	}
}

func (p *Plan) checkBatch(dst, src []complex128, count int) {
	if count < 0 {
		panic(fmt.Sprintf("fft: negative batch count %d", count))
	}
	if len(dst) < count*p.n || len(src) < count*p.n {
		panic(fmt.Sprintf("fft: batch of %d x %d needs %d elements, got dst %d src %d",
			count, p.n, count*p.n, len(dst), len(src)))
	}
}

var planCache sync.Map // int -> *Plan

// CachedPlan returns a shared plan for length n, creating it on first use.
// Plans are immutable after construction, so sharing is safe.
func CachedPlan(n int) (*Plan, error) {
	if v, ok := planCache.Load(n); ok {
		return v.(*Plan), nil
	}
	p, err := NewPlan(n)
	if err != nil {
		return nil, err
	}
	actual, _ := planCache.LoadOrStore(n, p)
	return actual.(*Plan), nil
}

// Forward is a convenience wrapper that transforms x into a fresh slice
// using the shared plan cache.
func Forward(x []complex128) ([]complex128, error) {
	p, err := CachedPlan(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	p.Forward(out, x)
	return out, nil
}

// Inverse is the convenience inverse-transform counterpart of Forward.
func Inverse(x []complex128) ([]complex128, error) {
	p, err := CachedPlan(len(x))
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(x))
	p.Inverse(out, x)
	return out, nil
}
