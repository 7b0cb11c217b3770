package soifft

import (
	"context"
	"fmt"

	"soifft/internal/mpi"
)

// World is a simulated cluster: a fixed set of ranks (goroutines) joined
// by a message-passing fabric with MPI semantics. It stands in for the
// MPI layer of the paper's implementation and counts every byte that
// would cross a real interconnect.
type World struct {
	inner *mpi.World
}

// NewWorld creates a world with the given number of ranks.
func NewWorld(ranks int) (*World, error) {
	w, err := mpi.NewWorld(ranks)
	if err != nil {
		return nil, err
	}
	return &World{inner: w}, nil
}

// Ranks returns the world size.
func (w *World) Ranks() int { return w.inner.Size() }

// CommStats summarizes the communication a run generated.
type CommStats struct {
	// Alltoalls counts global all-to-all exchanges — 1 for SOI, 3 for
	// conventional distributed FFTs.
	Alltoalls int64
	// AlltoallBytes is the total inter-rank payload of those exchanges.
	AlltoallBytes int64
	// Messages and Bytes count all wire traffic, halo exchanges included.
	Messages int64
	Bytes    int64
}

// Stats snapshots the world's accumulated communication counters.
func (w *World) Stats() CommStats {
	s := w.inner.Stats()
	return CommStats{
		Alltoalls:     s.Alltoalls,
		AlltoallBytes: s.AlltoallBytes,
		Messages:      s.P2PMessages,
		Bytes:         s.P2PBytes,
	}
}

// TransformDistributed runs the SOI transform over the world: src and
// dst are the full N-point input/output on the caller's side, scattered
// and gathered block-wise (rank p works on elements [p·N/R, (p+1)·N/R)).
// Communication per rank is one small halo exchange plus a single
// all-to-all of (1+β)·N/R points.
func (p *Plan) TransformDistributed(w *World, dst, src []complex128) error {
	return p.TransformDistributedContext(context.Background(), w, dst, src)
}

// InverseDistributed is TransformDistributed for the inverse DFT; the
// communication profile (one halo, one all-to-all) is unchanged.
func (p *Plan) InverseDistributed(w *World, dst, src []complex128) error {
	return p.InverseDistributedContext(context.Background(), w, dst, src)
}

// RunSPMD executes fn once per rank (SPMD style) and waits for all ranks;
// the first error aborts the world. It exposes the raw communicator for
// advanced distributed use.
func (w *World) RunSPMD(fn func(c *mpi.Comm) error) error { return w.inner.Run(fn) }

// TransformSegmentDistributed computes a single frequency segment over
// the world: the input is scattered block-wise, every rank contributes
// its convolution blocks' lane-s values, and the segment (length
// SegmentLen) is assembled with one gather — no all-to-all at all. This
// is the cheapest way to inspect part of a distributed spectrum.
func (p *Plan) TransformSegmentDistributed(w *World, src []complex128, s int) ([]complex128, error) {
	var out []complex128
	err := p.scatter(w, func(c *mpi.Comm, b [][]complex128) error {
		seg, err := p.inner.RunDistributedSegment(c, b[0], s, 0)
		if c.Rank() == 0 {
			out = seg
		}
		return err
	}, src)
	return out, err
}

// scatter checks that every buffer holds N points and that the plan
// splits over the world, then runs fn once per rank with that rank's
// block of each buffer, in order: rank p gets [p·N/R, (p+1)·N/R).
func (p *Plan) scatter(w *World, fn func(c *mpi.Comm, blocks [][]complex128) error, bufs ...[]complex128) error {
	n, r := p.N(), w.Ranks()
	for _, b := range bufs {
		if len(b) != n {
			return fmt.Errorf("soifft: need length %d, got %d: %w", n, len(b), ErrLength)
		}
	}
	if err := p.inner.ValidateDistributed(r); err != nil {
		return err
	}
	nLocal := n / r
	return w.inner.Run(func(c *mpi.Comm) error {
		blocks := make([][]complex128, len(bufs))
		for i, b := range bufs {
			blocks[i] = b[c.Rank()*nLocal : (c.Rank()+1)*nLocal]
		}
		return fn(c, blocks)
	})
}
