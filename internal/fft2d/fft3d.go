package fft2d

import (
	"fmt"

	"soifft/internal/core"
	"soifft/internal/fft"
)

// Grid3D distributes an n1×n2×n3 volume over a Pr×Pc process grid in
// the first two dimensions (the classic pencil decomposition used by
// production 3-D FFTs): rank (i, j) owns the pencil
// [i·n1/Pr, (i+1)·n1/Pr) × [j·n2/Pc, (j+1)·n2/Pc) × [0, n3), stored
// x-major then y then z (z contiguous). The z-dimension transforms are
// entirely local; x and y reuse the group line machinery of Grid.
type Grid3D struct {
	N1, N2, N3 int
	Pr, Pc     int
}

// NewGrid3D validates the pencil constraints.
func NewGrid3D(n1, n2, n3, pr, pc int) (Grid3D, error) {
	g := Grid3D{N1: n1, N2: n2, N3: n3, Pr: pr, Pc: pc}
	switch {
	case n1 <= 0 || n2 <= 0 || n3 <= 0 || pr <= 0 || pc <= 0:
		return g, fmt.Errorf("fft2d: all 3-D dimensions must be positive")
	case n1%pr != 0:
		return g, fmt.Errorf("fft2d: Pr=%d must divide n1=%d", pr, n1)
	case n2%pc != 0:
		return g, fmt.Errorf("fft2d: Pc=%d must divide n2=%d", pc, n2)
	case (n1 / pr * n3 % pc) != 0:
		return g, fmt.Errorf("fft2d: Pc=%d must divide the local x-z line count %d", pc, n1/pr*n3)
	case (n2 / pc * n3 % pr) != 0:
		return g, fmt.Errorf("fft2d: Pr=%d must divide the local y-z line count %d", pr, n2/pc*n3)
	}
	return g, nil
}

// LocalN1 returns the per-rank extent in the first dimension.
func (g Grid3D) LocalN1() int { return g.N1 / g.Pr }

// LocalN2 returns the per-rank extent in the second dimension.
func (g Grid3D) LocalN2() int { return g.N2 / g.Pc }

// LocalLen returns the per-rank element count.
func (g Grid3D) LocalLen() int { return g.LocalN1() * g.LocalN2() * g.N3 }

// Coords returns the grid coordinates of a world rank.
func (g Grid3D) Coords(rank int) (int, int) { return rank / g.Pc, rank % g.Pc }

// Forward computes the 3-D DFT of the distributed volume; the result
// keeps the same pencil distribution. The z transforms are local; the y
// and x phases each cost two group exchanges.
func (g Grid3D) Forward(c core.Comm, local []complex128) ([]complex128, error) {
	return g.transform(c, local, false)
}

// Inverse computes the inverse 3-D DFT scaled by 1/(n1·n2·n3).
func (g Grid3D) Inverse(c core.Comm, local []complex128) ([]complex128, error) {
	return g.transform(c, local, true)
}

func (g Grid3D) transform(c core.Comm, local []complex128, inverse bool) ([]complex128, error) {
	if c.Size() != g.Pr*g.Pc {
		return nil, fmt.Errorf("fft2d: 3-D grid %dx%d needs %d ranks, world has %d",
			g.Pr, g.Pc, g.Pr*g.Pc, c.Size())
	}
	l1, l2 := g.LocalN1(), g.LocalN2()
	if len(local) != l1*l2*g.N3 {
		return nil, fmt.Errorf("fft2d: local pencil must be %d elements, got %d", l1*l2*g.N3, len(local))
	}
	i, j := g.Coords(c.Rank())

	// Phase z: every (x, y) line in z is fully local and contiguous.
	a := append([]complex128(nil), local...)
	if err := batchLines(a, g.N3, inverse); err != nil {
		return nil, err
	}

	// Phase y: permute (x, y, z) → (x, z, y) so the y lines are
	// contiguous; the row group {(i, ·)} spans the full y extent.
	ayz := make([]complex128, len(a))
	permute(ayz, a, l1, l2, g.N3, l2*g.N3, 1, l2, false)
	by, err := lineFFT(c, members(i*g.Pc, 1, g.Pc), ayz, l1*g.N3, l2, g.N2, inverse)
	if err != nil {
		return nil, err
	}
	b := make([]complex128, len(a))
	permute(b, by, l1, l2, g.N3, l2*g.N3, 1, l2, true)

	// Phase x: permute (x, y, z) → (y, z, x) so the x lines are
	// contiguous; the column group {(·, j)} spans the full x extent.
	cxz := make([]complex128, len(b))
	permute(cxz, b, l1, l2, g.N3, 1, l1*g.N3, l1, false)
	dx, err := lineFFT(c, members(j, g.Pc, g.Pr), cxz, l2*g.N3, l1, g.N1, inverse)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, len(b))
	permute(out, dx, l1, l2, g.N3, 1, l1*g.N3, l1, true)
	return out, nil
}

// batchLines FFTs contiguous lines of length n in place.
func batchLines(a []complex128, n int, inverse bool) error {
	plan, err := fft.CachedPlan(n)
	if err != nil {
		return err
	}
	count := len(a) / n
	if inverse {
		plan.InverseBatch(a, a, count)
	} else {
		plan.Batch(a, a, count)
	}
	return nil
}

// permute moves element (x, y, z) of an l1×l2×n3 pencil from
// (x·l2+y)·n3+z to x·sx+y·sy+z·sz; back=true inverts the mapping. The
// strides (l2·n3, 1, l2) give the (x, z, y) order and (1, l1·n3, l1) the
// (y, z, x) order.
func permute(dst, src []complex128, l1, l2, n3, sx, sy, sz int, back bool) {
	for x := 0; x < l1; x++ {
		for y := 0; y < l2; y++ {
			for z := 0; z < n3; z++ {
				a := (x*l2+y)*n3 + z
				b := x*sx + y*sy + z*sz
				if back {
					dst[a] = src[b]
				} else {
					dst[b] = src[a]
				}
			}
		}
	}
}
