package mpinet

import (
	"time"

	"soifft/internal/exch"
)

// StartAlltoallv begins a chunked, windowed, asynchronous all-to-all
// (core.Comm's exchange). Unlike the in-process one, the window here is
// real: Send blocks while
// o.Window chunks for that destination are queued but not yet flushed to
// the socket, so a producer racing ahead of a slow link is paced by the
// wire instead of buffering without bound. Each chunk travels as one
// ordinary framed message (CRC32C, size guard) under the per-operation
// I/O deadline, and a dead or hung peer surfaces as one per-source
// *TransportError through Next — the stream analogue of the other
// collectives' returned faults. Send encodes each chunk into its own
// frame, so the caller's data is free again when Send returns.
//
// One goroutine may produce (Send) while one other consumes (Next); the
// stream must be fully drained or abandoned before the next collective
// on this Proc.
func (p *Proc) StartAlltoallv(o exch.Options) exch.Stream {
	w := o.Window
	if w < 1 {
		w = 1
	}
	s := &netStream{
		p:      p,
		o:      o,
		trk:    exch.NewTracker(p.size, len(o.Sizes)),
		credit: make([]chan struct{}, p.size),
	}
	for r := 0; r < p.size; r++ {
		if r == p.rank {
			continue
		}
		s.credit[r] = make(chan struct{}, w)
		go s.recvLoop(r)
	}
	return s
}

type netStream struct {
	p      *Proc
	o      exch.Options
	trk    *exch.Tracker
	credit []chan struct{} // per-destination in-flight window tokens
}

func (s *netStream) Send(dst, idx int, data []complex128) error {
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
	cr := s.credit[dst]
	// Acquire a window slot: backpressure against the link's real flush
	// progress. A dying link wakes the wait with its typed cause. When
	// the window is full the blocked time is booked as credit-stall —
	// per destination on the link and in aggregate on the recorder — the
	// producer-outran-this-link signal the explainer attributes excess
	// exchange time to.
	select {
	case cr <- struct{}{}:
	default:
		start := time.Now()
		select {
		case cr <- struct{}{}:
			d := time.Since(start)
			pe.wire.creditStallNs.Add(int64(d))
			p.rec.Load().AddCreditStall(d)
		case <-pe.dead:
			return &TransportError{Rank: dst, Op: "stream-send", Err: pe.failure()}
		}
	}
	if err := pe.sendFrame(pe.encode(exch.Tag(idx), wire), func() { <-cr }); err != nil {
		return &TransportError{Rank: dst, Op: "stream-send", Err: err}
	}
	return nil
}

// recvLoop drives source src's chunk sequence: per-link FIFO delivery
// means chunk idx always heads the mailbox when its turn comes, each
// under a fresh I/O deadline, and is decoded from the wire buffer
// straight into its Options.Recv slot. The first anomaly (death,
// deadline, checksum, tag desync, a frame the wrong size for its slot)
// ends the source's stream with one typed failure event.
func (s *netStream) recvLoop(src int) {
	pe := s.p.peers[src]
	for idx := range s.o.Sizes {
		slot := s.o.Slot(s.p.rank, s.p.size, src, idx)
		var wire []complex128
		var err error
		if s.o.Codec == nil {
			_, err = s.p.recvFrame(pe, pe.sbox, slot, exch.Tag(idx))
		} else if wire, err = s.p.recvFrame(pe, pe.sbox, nil, exch.Tag(idx)); err == nil {
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

func (s *netStream) Next() (exch.Chunk, bool) { return s.trk.Next() }

// isStreamTag reports whether a frame tag belongs to the streamed
// exchange's band; readLoop routes those to the peer's dedicated stream
// mailbox.
func isStreamTag(tag int) bool { return tag <= exch.TagBase }

// Close abandons the stream: a consumer blocked in Next wakes with
// ok=false even when slots are outstanding (the escape hatch for a
// producer that failed mid-schedule and so can never fill its own
// self-delivery slots). Receiver goroutines never block on the tracker
// (its channel holds the worst case), so they unwind on their own
// deadlines or when the Proc closes.
func (s *netStream) Close() { s.trk.Abort() }
