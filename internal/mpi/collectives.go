package mpi

import (
	"fmt"

	"soifft/internal/exch"
)

// tagGather is Gather's tag, in a reserved negative band clear of the
// user point-to-point tags, with the value mpinet gives it.
const tagGather = -4

// Gather concatenates equal-length chunks at the root: the result at root
// is size*len(chunk) elements ordered by rank; other ranks get nil. A
// peer whose chunk length disagrees with root's is a typed
// *CollectiveError wrapping ErrCountMismatch.
func (c *Comm) Gather(root int, chunk []complex128) ([]complex128, error) {
	if c.rank != root {
		return nil, c.Send(root, tagGather, chunk)
	}
	c.world.stats.gathers.Add(1)
	out := make([]complex128, len(chunk)*c.world.size)
	copy(out[c.rank*len(chunk):], chunk)
	for r := 0; r < c.world.size; r++ {
		if r == root {
			continue
		}
		if err := c.recvInto("gather", out[r*len(chunk):(r+1)*len(chunk)], r, tagGather); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Alltoall is the equal-counts personalized exchange into a fresh
// buffer: the one-chunk stream of exch.Alltoall. A send that is not
// size·chunk elements is a typed *CollectiveError wrapping
// ErrCountMismatch, before any traffic.
func (c *Comm) Alltoall(send []complex128, chunk int) ([]complex128, error) {
	if len(send) != c.world.size*chunk {
		return nil, &CollectiveError{Op: "alltoall", Rank: c.rank, Err: fmt.Errorf(
			"%w: send length %d, want %d", ErrCountMismatch, len(send), c.world.size*chunk)}
	}
	recv := make([]complex128, len(send))
	if err := exch.Alltoall(c, recv, send, chunk); err != nil {
		return nil, err
	}
	return recv, nil
}
