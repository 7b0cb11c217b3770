package mpinet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soifft/internal/exch"
)

// World is R memory-linked Procs in one process, each rank running the
// same SPMD function on its own goroutine (Run). A link puts packets
// straight into the peer Proc's mailboxes, so it starts no goroutine and
// has no writer queue. Send copies the payload into a recycled buffer
// (which RecvInto hands back), so it never blocks; the all-to-all
// stream lends its chunks by reference instead (see StartAlltoallv).
// Every rank also has a link to itself: a rank may send to its own rank.
type World struct {
	procs     []*Proc
	abortOnce sync.Once
	dead      chan struct{} // closed when the world aborts
}

// WorldStats aggregates a world's communication volume, summed over its
// ranks' link counters: payload bytes only. Collective byte counts
// include every payload byte moved between distinct ranks (self-copies
// are excluded, matching what a fabric would carry).
type WorldStats struct {
	P2PMessages, P2PBytes int64
	Gathers               int64
	Alltoalls             int64 // number of all-to-all collectives — the paper's key metric
	AlltoallBytes         int64 // inter-rank bytes carried by all-to-alls
}

// NewWorld creates a world of size memory-linked ranks.
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpinet: world size must be positive, got %d", size)
	}
	w := &World{procs: make([]*Proc, size), dead: make(chan struct{})}
	for r := range w.procs {
		p := &Proc{rank: r, size: size, peers: make([]*peer, size), world: w}
		for q := range p.peers {
			p.peers[q] = newPeer(q, p)
		}
		w.procs[r] = p
	}
	for r, p := range w.procs {
		for q, pe := range p.peers {
			pe.link = &memLink{pe: pe, to: w.procs[q].peers[r]}
		}
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.procs) }

// Run executes fn once per rank, each on its own goroutine, and waits for
// all of them. The first non-nil error aborts the world — every link
// fails with ErrAborted, waking blocked calls, while packets already
// queued stay readable — and Run returns it in preference to the
// ErrAborted faults it caused. A panic in fn is a bug and is not
// recovered.
func (w *World) Run(fn func(p *Proc) error) error {
	errs := make([]error, len(w.procs))
	var wg sync.WaitGroup
	for r, p := range w.procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[r] = fn(p); errs[r] != nil {
				w.abort()
			}
		}()
	}
	wg.Wait()
	var aborted error
	for _, err := range errs {
		if errors.Is(err, ErrAborted) {
			aborted = err
		} else if err != nil {
			return err
		}
	}
	return aborted
}

func (w *World) abort() {
	w.abortOnce.Do(func() {
		close(w.dead)
		for _, p := range w.procs {
			for _, pe := range p.peers {
				pe.fail(ErrAborted)
			}
		}
	})
}

// Stats sums the ranks' communication counters: every message of every
// band, and the stream band's as all-to-all volume.
func (w *World) Stats() WorldStats {
	var s WorldStats
	for _, p := range w.procs {
		sent := p.Sent()
		for _, t := range sent {
			s.P2PMessages += t.Messages
			s.P2PBytes += t.Bytes
		}
		s.AlltoallBytes += sent[exch.BandStream].Bytes
		s.Gathers += p.stats.gathers.Load()
		s.Alltoalls += p.stats.alltoalls.Load()
	}
	return s
}

// sendCopies recycles the buffered copies Send makes in process: a link
// hands one back once RecvInto has copied it out. One list per process,
// not per world, because callers build a fresh world per transform.
var sendCopies exch.FreeList[complex128]

// memLink is an in-process link: what one end sends lands in the other
// end's mailboxes. Failing one end fails the other.
type memLink struct {
	pe *peer // this end
	to *peer // the other end: the peer Proc's entry for this rank
}

func (l *memLink) send(tag int, data []complex128) error {
	if err := l.pe.alive(); err != nil {
		return err
	}
	b := sendCopies.Get(len(data))
	copy(b, data)
	l.hand(packet{tag: tag, data: b}, len(data))
	return nil
}

// hand puts pkt, of n payload elements, in the other end's mailbox. In
// process a frame is its payload, carried out and in at once.
func (l *memLink) hand(pkt packet, n int) {
	l.pe.band(pkt.tag).out.add(16 * n)
	l.to.band(pkt.tag).in.add(16 * n)
	l.to.boxFor(pkt.tag).put(pkt)
}

func (l *memLink) sendChunk(s *stream, tag int, wire []complex128) error {
	if err := l.pe.alive(); err != nil {
		return err
	}
	// A lent chunk inside this rank's own Recv would be read by the peer
	// while this rank's receivers write it.
	if exch.Overlap(wire, s.o.Recv) {
		return exch.ErrOverlap
	}
	if s.back == nil {
		s.back = make(chan struct{}, (s.p.size-1)*len(s.o.Sizes))
	}
	lo := &loan{data: wire, back: s.back, pe: l.pe}
	s.loans = append(s.loans, lo)
	l.hand(packet{tag: tag, loan: lo}, len(wire))
	return nil
}

// payload copies a Send's buffered copy into dst and recycles it, or
// with dst nil hands the copy itself over; a lent chunk it copies and
// hands back to its lender.
func (l *memLink) payload(dst []complex128, pkt packet) ([]complex128, error) {
	data := pkt.data
	switch lo := pkt.loan; {
	case lo != nil:
		if !lo.take() {
			return nil, l.pe.failure() // revoked: the link failed first
		}
		defer func() { lo.back <- struct{}{} }()
		data = lo.data
	case exch.BandOf(pkt.tag) == exch.BandStream:
		return nil, fmt.Errorf("a plain message under stream tag %d", pkt.tag)
	case dst == nil:
		return data, nil
	default:
		defer sendCopies.Put(data)
	}
	if dst == nil {
		dst = make([]complex128, len(data))
	} else if len(dst) != len(data) {
		return nil, fmt.Errorf("expected %d elements, got %d", len(dst), len(data))
	}
	copy(dst, data)
	return dst, nil
}

func (l *memLink) cut(cause error) { l.to.fail(cause) }
func (l *memLink) close()          { l.pe.pr.world.abort() }
func (l *memLink) shutdown()       { l.pe.pr.world.abort() }

// loan is one stream chunk lent by reference. Exactly one side claims
// it: the borrower, which copies it and then returns a token on back, or
// the lender revoking it.
type loan struct {
	data    []complex128
	claimed atomic.Bool
	back    chan<- struct{}
	pe      *peer // the lender's end of the link to the borrower
}

// take claims the loan; false means the other side already had.
func (l *loan) take() bool { return l.claimed.CompareAndSwap(false, true) }

// settle waits for the copies peers have taken of this stream's loans,
// and for the loans nobody has taken yet — a peer's receiver takes them
// without its rank's help. Once the world aborts it revokes those; with
// an I/O deadline it also revokes them once no loan was taken for that
// long, failing their links with ErrDeadline. A revoked loan's borrower
// gets its link's failure.
func (s *stream) settle() {
	pending, d := len(s.loans), s.p.IOTimeout()
	for pending > 0 {
		var expire <-chan time.Time
		if d > 0 {
			expire = time.After(d)
		}
		var cause error
		select {
		case <-s.back:
			pending--
			continue
		case <-s.p.world.dead:
		case <-expire:
			cause = fmt.Errorf("%w: a lent chunk was not taken within %v", ErrDeadline, d)
		}
		for _, lo := range s.loans {
			if lo.take() { // revoked before its borrower took it
				pending--
				if cause != nil {
					lo.pe.fail(cause)
				}
			}
		}
		for ; pending > 0; pending-- {
			<-s.back
		}
	}
}
