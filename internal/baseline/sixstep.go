package baseline

import (
	"fmt"
	"math"
	"math/cmplx"
	"time"

	"soifft/internal/core"
	"soifft/internal/fft"
)

// SixStep is the transpose-based in-order distributed FFT. Split controls
// the N = N1·N2 factor choice: SplitSquare picks N1 ≈ √N (the usual
// MKL/FFTW-class choice), SplitTall biases N1 upward, which changes cache
// and message granularity the way FFTE-class implementations do.
type SixStep struct {
	Split SplitKind
}

// SplitKind selects the N1·N2 factorization heuristic.
type SplitKind int

// Split heuristics for the six-step factorization.
const (
	SplitSquare SplitKind = iota
	SplitTall
)

// Name identifies the variant in benchmark tables.
func (s SixStep) Name() string {
	if s.Split == SplitTall {
		return "sixstep-tall"
	}
	return "sixstep"
}

// ChooseSplit returns n1, n2 with n = n1·n2, both divisible by r.
// SplitSquare takes the n1 closest to √N: the largest feasible n1 ≤ √N,
// since a feasible n1 above √N has a feasible cofactor N/n1 below it that
// is closer. SplitTall takes the largest feasible n1.
func ChooseSplit(n, r int, kind SplitKind) (int, int, error) {
	best := -1
	for n1 := r; n1 <= n/r; n1++ {
		if n%n1 != 0 || n1%r != 0 || (n/n1)%r != 0 {
			continue
		}
		if kind == SplitTall || (kind == SplitSquare && n1*n1 <= n) {
			best = n1
		}
	}
	if best == -1 {
		return 0, 0, fmt.Errorf("baseline: no N1·N2 split of N=%d with both factors divisible by ranks=%d", n, r)
	}
	return best, n / best, nil
}

// Transform runs the six-step algorithm; see the package comment for the
// step list. The three transpose calls are the triple all-to-all.
func (s SixStep) Transform(c core.Comm, localOut, localIn []complex128, n int) (Times, error) {
	var tm Times
	if _, err := checkArgs(c, localOut, localIn, n); err != nil {
		return tm, err
	}
	r := c.Size()
	n1, n2, err := ChooseSplit(n, r, s.Split)
	if err != nil {
		return tm, err
	}
	rn1, rn2 := n1/r, n2/r
	transpose := func(local []complex128, rows, cols int) ([]complex128, error) {
		t0 := time.Now()
		out, err := Transpose(c, local, rows, cols)
		tm.Exchanges += time.Since(t0)
		tm.NumXchg++
		return out, err
	}

	// Step 1: transpose the n1×n2 view to n2×n1.
	a, err := transpose(localIn, n1, n2)
	if err != nil {
		return tm, err
	}

	// Step 2: rn2 local FFTs of length n1.
	t0 := time.Now()
	p1, err := fft.CachedPlan(n1)
	if err != nil {
		return tm, err
	}
	p1.Batch(a, a, rn2)

	// Step 3: twiddle scale by ω_N^{j2·k1}, j2 the global row index.
	base := c.Rank() * rn2
	for j2 := 0; j2 < rn2; j2++ {
		g := float64(base + j2)
		row := a[j2*n1 : (j2+1)*n1]
		for k1 := 1; k1 < n1; k1++ {
			ang := -2 * math.Pi * g * float64(k1) / float64(n)
			row[k1] *= cmplx.Exp(complex(0, ang))
		}
	}
	tm.Compute += time.Since(t0)

	// Step 4: transpose back to the n1×n2 view.
	b, err := transpose(a, n2, n1)
	if err != nil {
		return tm, err
	}

	// Step 5: rn1 local FFTs of length n2.
	t0 = time.Now()
	p2, err := fft.CachedPlan(n2)
	if err != nil {
		return tm, err
	}
	p2.Batch(b, b, rn1)
	tm.Compute += time.Since(t0)

	// Step 6: final transpose delivers y in natural order.
	y, err := transpose(b, n1, n2)
	if err != nil {
		return tm, err
	}
	copy(localOut, y)
	return tm, nil
}
