package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"soifft/internal/exch"
)

// StartAlltoallv begins a chunked all-to-all (core.Comm's exchange) over
// the in-process runtime. It is a rendezvous per chunk, so each payload
// byte is copied once: Send lends a remote chunk to its destination by
// reference and returns at once (the window never blocks here), and the
// destination's receiver goroutine for this rank copies the loan
// straight into its Options.Recv slot and hands it back. The data a
// chunk was sent from must therefore stay untouched until Close, which
// settles the loans.
//
// The world statistics book the collective once, on rank 0, and each
// loan as the buffered Send it replaces: one P2P message of its wire
// bytes, plus its payload bytes as all-to-all volume. Self chunks are
// not counted, whatever the chunking.
func (c *Comm) StartAlltoallv(o exch.Options) exch.Stream {
	if c.rank == 0 {
		c.world.stats.alltoalls.Add(1)
	}
	size := c.world.size
	s := &stream{
		c:    c,
		o:    o,
		trk:  exch.NewTracker(size, len(o.Sizes)),
		back: make(chan struct{}, (size-1)*len(o.Sizes)),
	}
	for src := 0; src < size; src++ {
		if src != c.rank {
			go s.recvLoop(src)
		}
	}
	return s
}

type stream struct {
	c   *Comm
	o   exch.Options
	trk *exch.Tracker
	// back carries one token per loan a peer took, once copied; it has
	// room for every loan the schedule posts, so a borrower never blocks.
	back    chan struct{}
	loans   []*loan // every loan Send posted
	settled sync.Once
}

// loan is one chunk lent by reference.
type loan struct {
	data    []complex128
	claimed atomic.Bool     // by the borrower taking it, or the lender revoking it
	back    chan<- struct{} // one token per loan the borrower took, once copied
}

// take claims the loan; false means the other side already had.
func (l *loan) take() bool { return l.claimed.CompareAndSwap(false, true) }

func (s *stream) Send(dst, idx int, data []complex128) error {
	c := s.c
	if dst == c.rank {
		s.trk.Deliver(exch.Chunk{Src: dst, Index: idx, Data: data})
		return nil
	}
	select {
	case <-c.world.dead:
		return &AbortError{Rank: c.rank}
	default:
	}
	if err := c.checkRank("send", dst); err != nil {
		return err
	}
	// A lent chunk inside this rank's own Recv would be read by the peer
	// while this rank's receivers write it.
	if exch.Overlap(data, s.o.Recv) {
		return &CollectiveError{Op: "alltoall", Rank: c.rank, Err: exch.ErrOverlap}
	}
	wire := data
	if s.o.Codec != nil {
		wire = s.o.Codec.EncodeChunk(data)
	}
	l := &loan{data: wire, back: s.back}
	s.loans = append(s.loans, l)
	c.world.stats.p2pMessages.Add(1)
	c.world.stats.p2pBytes.Add(int64(len(wire)) * 16)
	c.world.stats.alltoallBytes.Add(int64(len(data)) * 16)
	c.world.box(c.rank, dst, exch.Tag(idx)).put(packet{tag: exch.Tag(idx), loan: l})
	return nil
}

// recvLoop borrows source src's chunks in schedule order; the first
// failure (an abort, a revoked loan, a chunk the wrong size for its
// slot) ends src's stream with one typed event.
func (s *stream) recvLoop(src int) {
	for idx := range s.o.Sizes {
		slot := s.o.Slot(s.c.rank, s.c.world.size, src, idx)
		if err := s.borrow(slot, src, idx); err != nil {
			s.trk.Deliver(exch.Chunk{Src: src, Err: err})
			return
		}
		s.trk.Deliver(exch.Chunk{Src: src, Index: idx, Data: slot})
	}
}

// borrow copies (or decodes) the chunk src lent under idx into slot and
// hands the loan back.
func (s *stream) borrow(slot []complex128, src, idx int) error {
	c := s.c
	p, err := c.get("alltoall", src, exch.Tag(idx))
	if err != nil {
		return err
	}
	l := p.loan
	if l == nil { // a plain Send under a stream tag: the program is mis-sequenced
		sendCopies.Put(p.data)
		return &CollectiveError{Op: "alltoall", Rank: c.rank, Err: fmt.Errorf(
			"rank %d sent a plain message under stream tag %d", src, p.tag)}
	}
	if !l.take() {
		return &AbortError{Rank: c.rank}
	}
	if s.o.Codec == nil {
		err = c.fill("alltoall", slot, l.data, src)
	} else if err = exch.DecodeInto(s.o.Codec, slot, l.data); err != nil {
		err = &CollectiveError{Op: "alltoall", Rank: c.rank, Err: err}
	}
	l.back <- struct{}{}
	return err
}

func (s *stream) Next() (exch.Chunk, bool) { return s.trk.Next() }

// Close ends the stream and settles its loans: it waits for the copies
// peers have taken, and for the loans nobody has taken yet — a peer's
// receiver takes them without its rank's help — until the world aborts,
// when it revokes them (their borrowers get *AbortError). After Close no
// peer reads the data this rank sent. The producer calls it, after its
// last Send; later calls return at once.
func (s *stream) Close() {
	s.trk.Abort()
	s.settled.Do(func() {
		pending := len(s.loans)
		for pending > 0 {
			select {
			case <-s.back:
				pending--
			case <-s.c.world.dead:
				for _, l := range s.loans {
					if l.take() { // revoked before its borrower took it
						pending--
					}
				}
				for ; pending > 0; pending-- {
					<-s.back
				}
			}
		}
	})
}
