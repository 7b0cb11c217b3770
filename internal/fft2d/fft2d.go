// Package fft2d implements a distributed 2-D FFT over a 2-D process
// grid (pencil decomposition) — the serial 2-D transform's scalable
// sibling, and the natural first step of the paper's Section 8 future
// work ("generalize to higher-dimensional FFTs").
//
// A rows×cols matrix is block-distributed over a Pr×Pc rank grid: rank
// (i, j) owns the submatrix [i·rows/Pr, (i+1)·rows/Pr) ×
// [j·cols/Pc, (j+1)·cols/Pc). Each dimension is transformed by
// redistributing *within* the corresponding grid group (the row group
// {(i, ·)} of Pc ranks, the column group {(·, j)} of Pr ranks) so each
// rank temporarily holds complete lines, running node-local FFTs, and
// redistributing back. Every exchange is point-to-point within a group;
// nothing ever crosses the full machine at once — the communication structure
// that makes multi-dimensional FFTs fundamentally cheaper than 1-D,
// which is exactly why the paper's single-all-to-all 1-D result matters.
package fft2d

import (
	"fmt"

	"soifft/internal/core"
)

// Grid describes the process grid and the matrix it distributes.
type Grid struct {
	Rows, Cols int // global matrix shape
	Pr, Pc     int // process grid shape; world size must equal Pr·Pc
}

// NewGrid validates the divisibility constraints of the pencil layout.
func NewGrid(rows, cols, pr, pc int) (Grid, error) {
	g := Grid{Rows: rows, Cols: cols, Pr: pr, Pc: pc}
	switch {
	case rows <= 0 || cols <= 0 || pr <= 0 || pc <= 0:
		return g, fmt.Errorf("fft2d: all dimensions must be positive")
	case rows%pr != 0:
		return g, fmt.Errorf("fft2d: Pr=%d must divide rows=%d", pr, rows)
	case cols%pc != 0:
		return g, fmt.Errorf("fft2d: Pc=%d must divide cols=%d", pc, cols)
	case (rows/pr)%pc != 0:
		return g, fmt.Errorf("fft2d: Pc=%d must divide the local row count %d", pc, rows/pr)
	case (cols/pc)%pr != 0:
		return g, fmt.Errorf("fft2d: Pr=%d must divide the local column count %d", pr, cols/pc)
	}
	return g, nil
}

// LocalRows returns the per-rank row count rows/Pr.
func (g Grid) LocalRows() int { return g.Rows / g.Pr }

// LocalCols returns the per-rank column count cols/Pc.
func (g Grid) LocalCols() int { return g.Cols / g.Pc }

// Coords returns the grid coordinates (i, j) of a world rank.
func (g Grid) Coords(rank int) (int, int) { return rank / g.Pc, rank % g.Pc }

// Forward computes the 2-D DFT of the distributed matrix: local is rank
// (i,j)'s LocalRows()×LocalCols() block in row-major order; the result
// has the same distribution. Four group exchanges.
func (g Grid) Forward(c core.Comm, local []complex128) ([]complex128, error) {
	return g.transform(c, local, false)
}

// Inverse computes the inverse 2-D DFT (scaled by 1/(rows·cols)).
func (g Grid) Inverse(c core.Comm, local []complex128) ([]complex128, error) {
	return g.transform(c, local, true)
}

func (g Grid) transform(c core.Comm, local []complex128, inverse bool) ([]complex128, error) {
	if c.Size() != g.Pr*g.Pc {
		return nil, fmt.Errorf("fft2d: grid %dx%d needs %d ranks, world has %d",
			g.Pr, g.Pc, g.Pr*g.Pc, c.Size())
	}
	lr, lc := g.LocalRows(), g.LocalCols()
	if len(local) != lr*lc {
		return nil, fmt.Errorf("fft2d: local block must be %d elements, got %d", lr*lc, len(local))
	}
	i, j := g.Coords(c.Rank())

	// Row phase: within the row group {(i, ·)}, gather complete rows,
	// transform, scatter back.
	a, err := lineFFT(c, members(i*g.Pc, 1, g.Pc), local, lr, lc, g.Cols, inverse)
	if err != nil {
		return nil, err
	}

	// Column phase: transpose the local block so columns become rows,
	// run the same machinery in the column group {(·, j)}, transpose back.
	at := make([]complex128, lr*lc)
	localTranspose(at, a, lr, lc)
	bt, err := lineFFT(c, members(j, g.Pc, g.Pr), at, lc, lr, g.Rows, inverse)
	if err != nil {
		return nil, err
	}
	out := make([]complex128, lr*lc)
	localTranspose(out, bt, lc, lr)
	return out, nil
}

// members lists the n world ranks first, first+stride, ...: rank (i, j)'s
// row group is members(i·Pc, 1, Pc) and its column group
// members(j, Pc, Pr), each ordered by the other grid coordinate.
func members(first, stride, n int) []int {
	group := make([]int, n)
	for k := range group {
		group[k] = first + k*stride
	}
	return group
}

// tagLine tags every group exchange; per-pair FIFO order keeps them apart.
const tagLine = 1

// exchange is an all-to-all within group: chunk t of send goes to
// group[t], and chunk t of recv comes from it.
func exchange(c core.Comm, group []int, recv, send []complex128, chunk int) error {
	for t, r := range group {
		if r == c.Rank() {
			copy(recv[t*chunk:(t+1)*chunk], send[t*chunk:(t+1)*chunk])
		} else if err := c.Send(r, tagLine, send[t*chunk:(t+1)*chunk]); err != nil {
			return fmt.Errorf("fft2d: group exchange send: %w", err)
		}
	}
	for t, r := range group {
		if r != c.Rank() {
			if err := c.RecvInto(recv[t*chunk:(t+1)*chunk], r, tagLine); err != nil {
				return fmt.Errorf("fft2d: group exchange receive: %w", err)
			}
		}
	}
	return nil
}

// lineFFT transforms the distributed lines of one dimension: each rank
// holds nLines local lines of seg elements; the group's ranks together
// hold complete lines of length full = seg·groupSize. Redistribute so
// each rank owns nLines/groupSize complete lines, FFT them, and
// redistribute back. Two group exchanges.
func lineFFT(c core.Comm, group []int, local []complex128, nLines, seg, full int, inverse bool) ([]complex128, error) {
	gs := len(group)
	if seg*gs != full {
		return nil, fmt.Errorf("fft2d: line segments %d×%d != full length %d", seg, gs, full)
	}
	per := nLines / gs // complete lines each rank owns mid-phase
	if per*gs != nLines {
		return nil, fmt.Errorf("fft2d: group size %d must divide local lines %d", gs, nLines)
	}
	chunk := per * seg

	// Local lines are already packed for the exchange: destination t
	// gets my segment of its line subset [t·per, (t+1)·per), line-major.
	recv := make([]complex128, nLines*seg)
	if err := exchange(c, group, recv, local, chunk); err != nil {
		return nil, err
	}

	// Assemble complete lines: line l, segment from group rank r.
	lines := make([]complex128, per*full)
	for r := 0; r < gs; r++ {
		for l := 0; l < per; l++ {
			copy(lines[l*full+r*seg:l*full+(r+1)*seg], recv[r*chunk+l*seg:r*chunk+(l+1)*seg])
		}
	}
	if err := batchLines(lines, full, inverse); err != nil {
		return nil, err
	}

	// Scatter back: group rank r gets segment r of each of my lines.
	back := make([]complex128, per*full)
	for r := 0; r < gs; r++ {
		for l := 0; l < per; l++ {
			copy(back[r*chunk+l*seg:r*chunk+(l+1)*seg], lines[l*full+r*seg:l*full+(r+1)*seg])
		}
	}
	// The segments come back in local line order.
	if err := exchange(c, group, recv, back, chunk); err != nil {
		return nil, err
	}
	return recv, nil
}

func localTranspose(dst, src []complex128, rows, cols int) {
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[c*rows+r] = src[r*cols+c]
		}
	}
}
