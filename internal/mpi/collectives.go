package mpi

import (
	"fmt"

	"soifft/internal/exch"
)

// Collective tags live in a reserved band so they can never collide with
// user point-to-point tags (which should be small non-negative ints).
const (
	tagBarrier = -(1 + iota)
	tagBcast
	tagReduce
	tagGather
	tagAllgather
	tagAlltoall
)

// Barrier blocks until every rank has entered it. Implementation:
// gather-to-root then broadcast, which is O(log R) rounds in message
// depth through the binomial trees below.
func (c *Comm) Barrier() {
	if c.rank == 0 {
		c.world.stats.barriers.Add(1)
	}
	c.reduceInternal(0, tagBarrier, complex(0, 0))
	c.bcastInternal(0, tagBcast, nil)
}

// Bcast distributes root's payload to every rank and returns it (ranks
// other than root pass data=nil).
func (c *Comm) Bcast(root int, data any) any {
	if c.rank == root {
		c.world.stats.bcasts.Add(1)
	}
	return c.bcastInternal(root, tagBcast, data)
}

// bcastInternal runs a binomial-tree broadcast rooted at root.
func (c *Comm) bcastInternal(root, tag int, data any) any {
	size := c.world.size
	// Rotate so the root is virtual rank 0.
	vrank := (c.rank - root + size) % size
	if vrank != 0 {
		// Receive from parent: clear the lowest set bit.
		parent := (vrank&(vrank-1) + root) % size
		data = c.recv(parent, tag)
	}
	// Forward to children: set successively higher bits.
	mask := 1
	for mask < size {
		if vrank&(mask-1) == 0 && vrank&mask == 0 {
			child := vrank | mask
			if child < size {
				c.send((child+root)%size, tag, data)
			}
		}
		mask <<= 1
	}
	return data
}

// Reduce combines one complex value per rank with + at the root and
// returns the sum there (zero elsewhere).
func (c *Comm) Reduce(root int, v complex128) complex128 {
	if c.rank == root {
		c.world.stats.reduces.Add(1)
	}
	if root != 0 {
		// Fold through virtual rank 0 for simplicity of the tree math.
		sum := c.reduceInternal(0, tagReduce, v)
		if c.rank == 0 {
			c.send(root, tagReduce, sum)
		}
		if c.rank == root {
			return c.recv(0, tagReduce).(complex128)
		}
		return 0
	}
	return c.reduceInternal(0, tagReduce, v)
}

// Allreduce is Reduce followed by Bcast.
func (c *Comm) Allreduce(v complex128) complex128 {
	if c.rank == 0 {
		c.world.stats.allreduces.Add(1)
	}
	sum := c.reduceInternal(0, tagReduce, v)
	return c.bcastInternal(0, tagBcast, sum).(complex128)
}

// reduceInternal folds values up a binomial tree rooted at rank 0.
func (c *Comm) reduceInternal(root, tag int, v complex128) complex128 {
	size := c.world.size
	vrank := c.rank
	mask := 1
	acc := v
	for mask < size {
		if vrank&mask != 0 {
			c.send(vrank&^mask, tag, acc)
			return 0
		}
		partner := vrank | mask
		if partner < size {
			acc += c.recv(partner, tag).(complex128)
		}
		mask <<= 1
	}
	_ = root
	return acc
}

// Gather concatenates equal-length chunks at the root: the result at root
// is size*len(chunk) elements ordered by rank; other ranks get nil. A
// chunk-length mismatch panics with a typed *CollectiveError (use
// GatherChecked for an error return).
func (c *Comm) Gather(root int, chunk []complex128) []complex128 {
	out, err := c.GatherChecked(root, chunk)
	if err != nil {
		panic(err)
	}
	return out
}

// GatherChecked is Gather returning typed errors instead of panicking:
// *CollectiveError wrapping ErrCountMismatch when a peer's chunk length
// disagrees with ours, or the abort fault if the world died mid-call.
func (c *Comm) GatherChecked(root int, chunk []complex128) (out []complex128, err error) {
	defer recoverFault(&err)
	if c.rank == root {
		c.world.stats.gathers.Add(1)
	}
	if c.rank != root {
		c.send(root, tagGather, chunk)
		return nil, nil
	}
	out = make([]complex128, len(chunk)*c.world.size)
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

// Allgather gives every rank the concatenation of all chunks.
func (c *Comm) Allgather(chunk []complex128) []complex128 {
	if c.rank == 0 {
		c.world.stats.allgathers.Add(1)
	}
	all := c.Gather(0, chunk)
	res := c.bcastInternal(0, tagAllgather, all)
	return res.([]complex128)
}

// Alltoall performs the equal-counts personalized exchange: send must be
// size*chunk elements; chunk elements go to each rank; the returned slice
// holds, in rank order, the chunk each rank sent to us. This is the
// paper's "global transpose" primitive.
func (c *Comm) Alltoall(send []complex128, chunk int) []complex128 {
	recv := make([]complex128, c.world.size*chunk)
	c.AlltoallInto(recv, send, chunk)
	return recv
}

// AlltoallInto is Alltoall receiving into the caller's size*chunk
// buffer: each incoming chunk is copied from its queued message straight
// into place, so a caller that keeps recv allocates nothing here beyond
// the buffered copies of its own sends.
func (c *Comm) AlltoallInto(recv, send []complex128, chunk int) {
	sp := exch.EqualSpans(chunk)
	if err := c.alltoallInto(recv, send, sp, sp); err != nil {
		panic(err)
	}
}

// Alltoallv is Alltoall with per-destination counts. send holds the
// outgoing chunks back-to-back in rank order with lengths sendCounts;
// the result holds incoming chunks in rank order with lengths recvCounts.
// Malformed counts panic with a typed *CollectiveError (use
// AlltoallvChecked for an error return).
func (c *Comm) Alltoallv(send []complex128, sendCounts, recvCounts []int) []complex128 {
	out, err := c.AlltoallvChecked(send, sendCounts, recvCounts)
	if err != nil {
		panic(err)
	}
	return out
}

// AlltoallvChecked is Alltoallv returning typed errors instead of
// panicking: *CollectiveError wrapping ErrCountMismatch for count/length
// disagreements (naming the offending peer), or the abort fault if the
// world died mid-call.
func (c *Comm) AlltoallvChecked(send []complex128, sendCounts, recvCounts []int) ([]complex128, error) {
	return c.exchangev("alltoallv", c.alltoallInto, send, sendCounts, recvCounts)
}

// exchangev validates per-rank counts and runs one of the two all-to-all
// algorithms into a fresh result buffer.
func (c *Comm) exchangev(op string, into func(recv, send []complex128, ss, rs exch.Spans) error, send []complex128, sendCounts, recvCounts []int) ([]complex128, error) {
	size := c.world.size
	if len(sendCounts) != size || len(recvCounts) != size {
		return nil, &CollectiveError{Op: op, Rank: c.rank, Err: fmt.Errorf(
			"%w: needs %d counts, got %d/%d", ErrCountMismatch, size, len(sendCounts), len(recvCounts))}
	}
	rs := exch.CountSpans(recvCounts)
	_, n := rs.Of(size - 1)
	recv := make([]complex128, n)
	if err := into(recv, send, exch.CountSpans(sendCounts), rs); err != nil {
		return nil, err
	}
	return recv, nil
}

// enterAlltoall, the all-to-all algorithms' shared preamble, checks the
// buffer lengths against the layouts and counts the op once per world.
func (c *Comm) enterAlltoall(op string, recv, send []complex128, ss, rs exch.Spans) error {
	_, ns := ss.Of(c.world.size - 1)
	_, nr := rs.Of(c.world.size - 1)
	if len(send) != ns || len(recv) != nr {
		return &CollectiveError{Op: op, Rank: c.rank, Err: fmt.Errorf(
			"%w: send/recv lengths %d/%d, counts sum %d/%d", ErrCountMismatch, len(send), len(recv), ns, nr)}
	}
	if c.rank == 0 {
		c.world.stats.alltoalls.Add(1)
	}
	return nil
}

// alltoallInto is the one all-to-all implementation: post every send
// first (buffered, cannot block), then copy each queued chunk into place.
func (c *Comm) alltoallInto(recv, send []complex128, ss, rs exch.Spans) (err error) {
	defer recoverFault(&err)
	if err := c.enterAlltoall("alltoallv", recv, send, ss, rs); err != nil {
		return err
	}
	for r := 0; r < c.world.size; r++ {
		lo, hi := ss.Of(r)
		if r == c.rank {
			rlo, rhi := rs.Of(r)
			copy(recv[rlo:rhi], send[lo:hi])
			continue
		}
		c.world.stats.alltoallBytes.Add(int64(hi-lo) * 16)
		c.send(r, tagAlltoall, send[lo:hi])
	}
	for r := 0; r < c.world.size; r++ {
		if r == c.rank {
			continue
		}
		lo, hi := rs.Of(r)
		if err := c.recvInto("alltoallv", recv[lo:hi], r, tagAlltoall); err != nil {
			return err
		}
	}
	return nil
}
