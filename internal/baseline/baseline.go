// Package baseline implements standard in-order distributed 1-D FFT
// algorithms of the class the paper compares against (Intel MKL, FFTW,
// FFTE): all require three global data exchanges, which is precisely the
// communication SOI eliminates.
//
// Two algorithm families are provided:
//
//   - SixStep: the transpose algorithm (Bailey): global transpose, local
//     FFTs of length N1, twiddle scaling, global transpose, local FFTs of
//     length N2, global transpose back to natural order — 3 all-to-alls
//     of N points.
//   - BinaryExchange: the hypercube butterfly algorithm: log2(R)
//     full-block pairwise exchanges followed by local FFTs and one final
//     all-to-all to restore natural order — communication grows with
//     log(R), which is how some older libraries behave at scale.
//
// Both run on any core.Comm, with the SOI driver's block distribution:
// rank p holds x[p·N/R : (p+1)·N/R] in and y[p·N/R : (p+1)·N/R] out.
package baseline

import (
	"fmt"
	"time"

	"soifft/internal/core"
	"soifft/internal/exch"
)

// Times records one rank's phase breakdown; Exchanges is the total time
// spent in global data exchanges (the dominant term at scale).
type Times struct {
	Compute   time.Duration
	Exchanges time.Duration
	NumXchg   int // number of global exchange steps performed
}

// Total returns compute plus exchange time.
func (t Times) Total() time.Duration { return t.Compute + t.Exchanges }

// Algorithm is an in-order distributed DFT on block-distributed data.
type Algorithm interface {
	// Name identifies the algorithm in benchmark tables.
	Name() string
	// Transform computes the N-point DFT: localIn/localOut have length
	// N/R on every rank, block distribution, natural order.
	Transform(c core.Comm, localOut, localIn []complex128, n int) (Times, error)
}

// checkArgs validates the common distribution contract.
func checkArgs(c core.Comm, localOut, localIn []complex128, n int) (nLocal int, err error) {
	r := c.Size()
	if n <= 0 || n%r != 0 {
		return 0, fmt.Errorf("baseline: N=%d must be a positive multiple of ranks=%d", n, r)
	}
	nLocal = n / r
	if len(localIn) != nLocal || len(localOut) != nLocal {
		return 0, fmt.Errorf("baseline: rank %d: need local length %d, got in %d out %d",
			c.Rank(), nLocal, len(localIn), len(localOut))
	}
	return nLocal, nil
}

// Transpose redistributes an n1×n2 row-major matrix, block-distributed
// by rows (rank p owns rows [p·n1/R, (p+1)·n1/R)), into its n2×n1
// transpose with the same row-block distribution. This is the "local
// permutation + all-to-all" global transpose of paper Fig 3; a failed
// all-to-all returns an error wrapping c's fault.
func Transpose(c core.Comm, local []complex128, n1, n2 int) ([]complex128, error) {
	r := c.Size()
	if n1%r != 0 || n2%r != 0 {
		return nil, fmt.Errorf("baseline: transpose dims %dx%d not divisible by ranks %d", n1, n2, r)
	}
	rn1, rn2 := n1/r, n2/r
	if len(local) != rn1*n2 {
		return nil, fmt.Errorf("baseline: transpose local length %d, want %d", len(local), rn1*n2)
	}
	// Pack: destination t receives my columns [t·rn2, (t+1)·rn2), laid out
	// so each of its future rows is contiguous.
	send := make([]complex128, rn1*n2)
	for t := 0; t < r; t++ {
		base := t * rn1 * rn2
		for j2 := 0; j2 < rn2; j2++ {
			col := t*rn2 + j2
			for j1 := 0; j1 < rn1; j1++ {
				send[base+j2*rn1+j1] = local[j1*n2+col]
			}
		}
	}
	recv := make([]complex128, rn1*n2)
	if err := exch.Alltoall(c, recv, send, rn1*rn2); err != nil {
		return nil, fmt.Errorf("baseline: transpose %dx%d: %w", n1, n2, err)
	}
	out := make([]complex128, rn2*n1)
	for src := 0; src < r; src++ {
		chunk := recv[src*rn1*rn2 : (src+1)*rn1*rn2]
		for j2 := 0; j2 < rn2; j2++ {
			copy(out[j2*n1+src*rn1:j2*n1+(src+1)*rn1], chunk[j2*rn1:(j2+1)*rn1])
		}
	}
	return out, nil
}
