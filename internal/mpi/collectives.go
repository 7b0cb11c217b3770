package mpi

import (
	"fmt"
	"sync/atomic"

	"soifft/internal/exch"
)

// Collective tags live in a reserved negative band, clear of the user
// point-to-point tags, with the values mpinet gives the same collectives.
const (
	tagGather   = -4
	tagAlltoall = -6
)

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

// Alltoall is AlltoallInto into a fresh buffer.
func (c *Comm) Alltoall(send []complex128, chunk int) ([]complex128, error) {
	recv := make([]complex128, c.world.size*chunk)
	if err := c.AlltoallInto(recv, send, chunk); err != nil {
		return nil, err
	}
	return recv, nil
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
			c.world.box(c.rank, r, tagAlltoall).put(packet{tag: tagAlltoall, loan: l})
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
	p, err := c.get("alltoall", src, tagAlltoall)
	if err != nil {
		return err
	}
	l := p.loan
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
