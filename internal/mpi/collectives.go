package mpi

import (
	"fmt"
	"sync/atomic"

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

// Allgather gives every rank the concatenation of all chunks.
func (c *Comm) Allgather(chunk []complex128) []complex128 {
	if c.rank == 0 {
		c.world.stats.allgathers.Add(1)
	}
	all, err := c.Gather(0, chunk)
	if err != nil {
		panic(err)
	}
	res := c.bcastInternal(0, tagAllgather, all)
	return res.([]complex128)
}

// Alltoall is AlltoallInto into a fresh buffer, for the experiment
// drivers: a failure unwinds the rank through World.Run.
func (c *Comm) Alltoall(send []complex128, chunk int) []complex128 {
	recv := make([]complex128, c.world.size*chunk)
	if err := c.AlltoallInto(recv, send, chunk); err != nil {
		panic(err)
	}
	return recv
}

// AlltoallInto performs the equal-counts personalized exchange — the
// paper's "global transpose" primitive. send and recv hold size*chunk
// elements and must not overlap; chunk elements go to each rank, and recv
// receives, in rank order, the chunk each rank sent to us.
//
// It is a rendezvous, so each payload byte is copied once: every rank
// lends each peer its outgoing chunk by reference, copies the chunks lent
// to it straight into recv and hands them back, and returns only once its
// own loans are back or revoked (see settle), so no peer reads send after
// the call. The world statistics book each loan as the message Send would
// have been.
func (c *Comm) AlltoallInto(recv, send []complex128, chunk int) error {
	size := c.world.size
	if len(send) != size*chunk || len(recv) != size*chunk {
		return &CollectiveError{Op: "alltoall", Rank: c.rank, Err: fmt.Errorf(
			"%w: send/recv lengths %d/%d, want %d", ErrCountMismatch, len(send), len(recv), size*chunk)}
	}
	if exch.Overlap(recv, send) {
		return &CollectiveError{Op: "alltoall", Rank: c.rank, Err: exch.ErrOverlap}
	}
	if c.rank == 0 {
		c.world.stats.alltoalls.Add(1)
	}
	back := make(chan struct{}, size-1) // one token per loan
	loans := make([]*loan, 0, size)
	for r := 0; r < size; r++ {
		if r != c.rank {
			l := &loan{data: send[r*chunk : (r+1)*chunk], back: back}
			loans = append(loans, l)
			c.world.stats.p2pMessages.Add(1)
			c.world.stats.p2pBytes.Add(int64(chunk) * 16)
			c.world.stats.alltoallBytes.Add(int64(chunk) * 16)
			c.world.box(c.rank, r, tagAlltoall).put(packet{tag: tagAlltoall, data: l})
		}
	}
	copy(recv[c.rank*chunk:(c.rank+1)*chunk], send[c.rank*chunk:(c.rank+1)*chunk])
	// Borrow from every peer even after a failure, so no peer's loan is
	// stranded by an error on another link.
	var err error
	for r := 0; r < size; r++ {
		if r == c.rank {
			continue
		}
		if berr := c.borrow(recv[r*chunk:(r+1)*chunk], r); err == nil {
			err = berr
		}
	}
	return c.settle(loans, back, err)
}

// loan is one chunk of a rendezvous all-to-all, lent by reference.
type loan struct {
	data    []complex128
	claimed atomic.Bool     // by the borrower taking it, or the lender revoking it
	back    chan<- struct{} // one token per loan the borrower took, once copied
}

// take claims the loan; false means the other side already had.
func (l *loan) take() bool { return l.claimed.CompareAndSwap(false, true) }

// borrow copies the chunk rank src lent us into dst and hands it back.
func (c *Comm) borrow(dst []complex128, src int) error {
	data, err := c.get("alltoall", src, tagAlltoall)
	if err != nil {
		return err
	}
	l := data.(*loan)
	if !l.take() {
		return &AbortError{Rank: c.rank}
	}
	err = c.fill("alltoall", dst, l.data, src)
	l.back <- struct{}{}
	return err
}

// settle waits for every loan to come back and returns err. After a
// failure of its own, or once the world aborts, a rank revokes the loans
// nobody took (their borrowers get *AbortError) and waits only for the
// copies in flight.
func (c *Comm) settle(loans []*loan, back <-chan struct{}, err error) error {
	pending := len(loans)
	for err == nil && pending > 0 {
		select {
		case <-back:
			pending--
		case <-c.world.dead:
			err = &AbortError{Rank: c.rank}
		}
	}
	for _, l := range loans {
		if l.take() { // revoked before its borrower took it
			pending--
		}
	}
	for ; pending > 0; pending-- {
		<-back
	}
	return err
}
