package mpinet

import (
	"sync"

	"soifft/internal/exch"
)

// StartAlltoallv begins a chunked all-to-all (core.Comm's exchange).
// Each source's chunks arrive in index order, each under a fresh I/O
// deadline, straight into their Options.Recv slots; the first anomaly
// ends that source with one typed *TransportError through Next.
//
// On a socket Send encodes a chunk into its own frame, so data is free
// again on return, and blocks while o.Window chunks for that destination
// are unflushed: a producer racing ahead of a slow link is paced by the
// wire. In process Send lends the chunk by reference and never blocks,
// the receiver copies it once, and Close settles the loans, so data must
// stay untouched until Close. Rank 0 counts the collective once; each
// chunk is counted like any send, in the stream band of its link.
//
// One goroutine may produce (Send) while one other consumes (Next); the
// stream must be fully drained or abandoned before the next collective.
func (p *Proc) StartAlltoallv(o exch.Options) exch.Stream {
	if p.rank == 0 {
		p.stats.alltoalls.Add(1)
	}
	s := &stream{p: p, o: o, trk: exch.NewTracker(p.size, len(o.Sizes)), credit: make([]chan struct{}, p.size)}
	for src := 0; src < p.size; src++ {
		if src != p.rank {
			go s.recvLoop(src)
		}
	}
	return s
}

type stream struct {
	p   *Proc
	o   exch.Options
	trk *exch.Tracker

	credit []chan struct{} // socket: per-destination window tokens, made at its first chunk
	// back carries one token per loan a peer took, once copied; it has
	// room for every loan the schedule posts, so a borrower never blocks.
	back    chan struct{}
	loans   []*loan // in process: every chunk Send lent
	settled sync.Once
}

func (s *stream) Send(dst, idx int, data []complex128) error {
	p := s.p
	if dst == p.rank {
		s.trk.Deliver(exch.Chunk{Src: dst, Index: idx, Data: data})
		return nil
	}
	pe, err := p.peerOf(dst, "stream-send")
	if err != nil {
		return err
	}
	wire := data
	if s.o.Codec != nil {
		wire = s.o.Codec.EncodeChunk(data)
	}
	if err := pe.link.sendChunk(s, exch.Tag(idx), wire); err != nil {
		return &TransportError{Rank: dst, Op: "stream-send", Err: err}
	}
	pe.band(exch.Tag(idx)).posted.add(16 * len(wire))
	return nil
}

// recvLoop receives source src's chunks in schedule order, each into its
// Recv slot (through the codec, when there is one).
func (s *stream) recvLoop(src int) {
	for idx := range s.o.Sizes {
		slot := s.o.Slot(s.p.rank, s.p.size, src, idx)
		var wire []complex128
		var err error
		if s.o.Codec == nil {
			_, err = s.p.recv(src, slot, "stream-recv", exch.Tag(idx))
		} else if wire, err = s.p.recv(src, nil, "stream-recv", exch.Tag(idx)); err == nil {
			if err = exch.DecodeInto(s.o.Codec, slot, wire); err != nil {
				err = &TransportError{Rank: src, Op: "stream-recv", Err: err}
			}
		}
		if err != nil {
			s.trk.Deliver(exch.Chunk{Src: src, Err: err})
			return
		}
		s.trk.Deliver(exch.Chunk{Src: src, Index: idx, Data: slot})
	}
}

func (s *stream) Next() (exch.Chunk, bool) { return s.trk.Next() }

// Close ends the stream: a consumer blocked in Next wakes with ok=false
// even when slots are outstanding (the escape hatch for a producer that
// failed mid-schedule and so can never fill its own self-delivery
// slots), and in process it settles the loans, so after Close no peer
// reads the data this rank sent. Receiver goroutines never block on the
// tracker (its channel holds the worst case), so they unwind on their
// own. The producer calls it after its last Send; later calls return at
// once.
func (s *stream) Close() {
	s.trk.Abort()
	s.settled.Do(s.settle)
}
