// Package mpinet is the message-passing layer of the distributed SOI
// driver: one core.Comm implementation, *Proc, over per-peer links of one
// of two kinds.
//
//   - Over TCP (Node.Connect) the ranks are processes (cmd/soinode runs
//     one per OS process) in a full mesh — rank r dials every lower rank
//     and accepts from every higher one — exchanging frames of complex128
//     data, each with a magic word and a CRC32C checksum over header and
//     payload, its length bounded by MaxFrameElems before any allocation.
//     While an I/O deadline is set idle links carry heartbeats, so a hung
//     peer is detected within one deadline instead of never.
//   - In process (NewWorld) the ranks are goroutines and a link puts
//     packets straight into the peer's mailboxes, with no encoding,
//     checksum or writer. It stands in for the MPI layer of the paper's
//     implementation.
//
// Above the link everything is shared: per-peer mailboxes matched per tag
// band in FIFO order, one traffic counter per peer split by the same
// bands (what Sent, Stats, LinkStats and World.Stats all read), the
// optional I/O deadline (SetIOTimeout), the collectives, the chunked
// all-to-all stream, and one typed failure:
// every anomaly — checksum mismatch, malformed frame, reset, timeout,
// peer death, an aborted world, a mis-sequenced tag, a rank outside the
// world — is a *TransportError naming the peer rank and the operation,
// returned from the failing call.
package mpinet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soifft/internal/exch"
	"soifft/internal/instrument"
	"soifft/internal/telemetry"
	"soifft/internal/trace"
)

// Typed causes chained inside *TransportError, matchable with errors.Is.
var (
	// ErrPeerClosed means the peer hung up (EOF/reset) or this side shut
	// the link down.
	ErrPeerClosed = errors.New("connection closed by peer")
	// ErrDeadline means an operation exceeded the SetIOTimeout budget —
	// a hung or unreachable peer, or a link too slow for the deadline.
	ErrDeadline = errors.New("i/o deadline exceeded")
	// ErrChecksum means a frame arrived with a CRC32C mismatch: payload
	// bits were corrupted in flight.
	ErrChecksum = errors.New("frame checksum mismatch (payload corrupted in flight)")
	// ErrBadFrame means a frame header failed validation (bad magic):
	// corruption or a desynchronized stream.
	ErrBadFrame = errors.New("malformed frame header (corrupted or desynchronized stream)")
	// ErrFrameTooLarge means a frame header claimed more than
	// MaxFrameElems elements.
	ErrFrameTooLarge = errors.New("frame length exceeds MaxFrameElems")
	// ErrAborted means the in-process world aborted: another rank's
	// function returned an error.
	ErrAborted = errors.New("world aborted: another rank failed")
	// ErrTagMismatch means the next message from the peer carries another
	// tag: the SPMD program's sends and receives are out of sequence.
	ErrTagMismatch = errors.New("tag mismatch (sends and receives out of sequence)")
)

// TransportError is the typed failure of a link (a core.Fault): the peer
// rank involved, the operation that observed the fault ("send", "recv",
// "gather", "stream-recv", ...), and the cause (one of the Err*
// sentinels or an OS error).
type TransportError struct {
	Rank int    // peer rank on the failed link
	Op   string // operation that observed the fault
	Err  error  // cause
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("mpinet: %s involving rank %d failed: %v", e.Op, e.Rank, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// CommFault marks the error as a typed communication fault.
func (e *TransportError) CommFault() {}

// Timeout reports whether the fault was a deadline expiry.
func (e *TransportError) Timeout() bool { return errors.Is(e.Err, ErrDeadline) }

// Proc is one rank; it satisfies core.Comm. Its links are sockets
// (Node.Connect) or in-memory hand-offs (NewWorld).
type Proc struct {
	rank, size  int
	peers       []*peer // by rank; nil where there is no link (a mesh rank's own)
	world       *World  // the in-process world; nil on a mesh
	ioTimeoutNs atomic.Int64
	rec         atomic.Pointer[instrument.Recorder]
	tr          atomic.Pointer[trace.Tracer]
	traceID     atomic.Uint64
	stats       netStats
}

// netStats is the rank's event counters; its traffic is counted per
// peer, in peer.bands.
type netStats struct {
	alltoalls, gathers atomic.Int64 // collectives begun as rank 0, as root
	heartbeatsSent     atomic.Int64
	dialRetries        atomic.Int64
	deadlineEvents     atomic.Int64
	checksumErrors     atomic.Int64
	linkFailures       atomic.Int64
}

// NetStats is a point-in-time snapshot of a rank's wire activity since
// Connect. Frame and byte counts are its links' band counters summed:
// data frames only (header plus payload), keep-alives being reported
// separately as HeartbeatsSent. In process a frame is one message and its
// bytes are the payload's.
type NetStats struct {
	FramesSent, BytesSent         int64 // data frames this rank wrote
	FramesReceived, BytesReceived int64 // validated data frames read
	HeartbeatsSent                int64 // keep-alive frames written on idle links
	DialRetries                   int64 // redials while the mesh formed
	DeadlineEvents                int64 // expired I/O deadlines (hung-peer detections)
	ChecksumErrors                int64 // frames rejected with CRC mismatches
	LinkFailures                  int64 // links declared dead (any cause)
}

// Stats snapshots the transport counters.
func (p *Proc) Stats() NetStats {
	s := NetStats{
		HeartbeatsSent: p.stats.heartbeatsSent.Load(),
		DialRetries:    p.stats.dialRetries.Load(),
		DeadlineEvents: p.stats.deadlineEvents.Load(),
		ChecksumErrors: p.stats.checksumErrors.Load(),
		LinkFailures:   p.stats.linkFailures.Load(),
	}
	for _, pe := range p.peers {
		if pe != nil {
			l := pe.linkStat()
			s.FramesSent += l.FramesSent
			s.BytesSent += l.BytesSent
			s.FramesReceived += l.FramesReceived
			s.BytesReceived += l.BytesReceived
		}
	}
	return s
}

// Sent sums, by tag band, the payloads this rank's successful sends
// posted on all its links: the count the distributed driver books a
// run's traffic from, as the difference of a snapshot before and after.
func (p *Proc) Sent() exch.Bands {
	var out exch.Bands
	for _, pe := range p.peers {
		if pe == nil {
			continue
		}
		for b := range out {
			t := pe.bands[b].posted.load()
			out[b].Messages += t.Messages
			out[b].Bytes += t.Bytes
		}
	}
	return out
}

// SetRecorder mirrors transport fault events (deadline expiries,
// checksum rejections, dial retries) into an observability recorder, so
// a plan's CommReport surfaces wire trouble alongside its traffic. The
// traffic itself is not mirrored: the links count it by band (Sent) and
// the distributed driver books what its run sent. nil detaches.
func (p *Proc) SetRecorder(r *instrument.Recorder) {
	p.rec.Store(r)
	if r.On() {
		for n := p.stats.dialRetries.Load(); n > 0; n-- {
			r.CountRetransmit() // retries that happened before attach
		}
	}
}

// noteFailure books a dead link and classifies its cause into the fault
// counters (the attached recorder, if any, and the flight recorder:
// a typed transport fault dumps the event ring to disk).
func (p *Proc) noteFailure(cause error) {
	p.stats.linkFailures.Add(1)
	rec := p.rec.Load()
	switch {
	case errors.Is(cause, ErrDeadline):
		p.stats.deadlineEvents.Add(1)
		rec.CountDeadline()
	case errors.Is(cause, ErrChecksum):
		p.stats.checksumErrors.Add(1)
		rec.CountChecksumError()
	}
	p.flightFault(cause)
}

// Rank returns this process's rank.
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.size }

// SetIOTimeout installs the per-operation I/O deadline: the longest any
// single send, receive, or idle wait may take before it fails with a
// typed ErrDeadline fault. On a socket the link is then declared dead,
// and while a deadline is set idle links carry heartbeat frames (every
// d/3), so a healthy-but-quiet peer is never misdeclared and a hung one
// is caught within ~d. In process the deadline bounds every receive and
// a stream's wait for its lent chunks to be taken. d <= 0 disables
// deadlines (the default: calls block until the peer acts or the link
// fails). Call it before the first collective.
func (p *Proc) SetIOTimeout(d time.Duration) { p.ioTimeoutNs.Store(int64(max(d, 0))) }

// IOTimeout returns the current per-operation deadline (0 = none).
func (p *Proc) IOTimeout() time.Duration { return time.Duration(p.ioTimeoutNs.Load()) }

// Close tears down all links. In process, closing any rank aborts its
// world.
func (p *Proc) Close() {
	for _, pe := range p.peers {
		if pe != nil {
			pe.link.close()
		}
	}
}

// Shutdown is the graceful half of dying: every link flushes its queued
// frames and half-closes its write side (FIN, not RST), while reads stay
// open so in-flight traffic from peers is still acknowledged and
// drained. Peers observe a clean end-of-stream AFTER everything this
// rank already sent — the post-flush death the coded exchange's parity
// budget is specified against, and what a SIGTERM handler should call
// before exiting. Abrupt deaths (Close, kill -9, RST) may instead
// destroy this rank's frames still buffered in peers' kernels; coded
// mode then fails typed rather than recovering. Call Close afterwards to
// release the sockets. In process it aborts the world, like Close.
func (p *Proc) Shutdown() {
	for _, pe := range p.peers {
		if pe != nil {
			pe.link.shutdown()
		}
	}
}

// Send delivers data to rank `to` without waiting for the receiver: the
// payload is copied (into a queued frame, or in process into a recycled
// buffer), so data is the caller's again on return. If the link to `to`
// has already failed, Send returns its typed *TransportError instead of
// queueing into the void.
func (p *Proc) Send(to, tag int, data []complex128) error {
	pe, err := p.peerOf(to, "send")
	if err != nil {
		return err
	}
	if err := pe.link.send(tag, data); err != nil {
		pe.wire.sendErrors.Add(1)
		return &TransportError{Rank: to, Op: "send", Err: err}
	}
	pe.band(tag).posted.add(16 * len(data))
	return nil
}

// RecvC blocks for the next message from rank `from` and checks its tag;
// the payload is the caller's to keep. A dead link, a corrupted frame,
// another tag, or an expired I/O deadline returns a typed
// *TransportError naming `from`.
func (p *Proc) RecvC(from, tag int) ([]complex128, error) {
	return p.recv(from, nil, "recv", tag)
}

// RecvInto is RecvC into the caller's buffer, whose length the message
// must match: the payload is decoded (in process, copied) straight into
// dst, and the buffer it arrived in is recycled.
func (p *Proc) RecvInto(dst []complex128, from, tag int) error {
	_, err := p.recv(from, dst, "recv", tag)
	return err
}

// peerOf returns the link to rank, or for a rank outside the world (or
// a mesh rank's own, which has no link) a *TransportError of op — the
// same typed failure as a dead link, never a panic.
func (p *Proc) peerOf(rank int, op string) (*peer, error) {
	if rank < 0 || rank >= p.size || p.peers[rank] == nil {
		return nil, &TransportError{Rank: rank, Op: op,
			Err: fmt.Errorf("invalid rank %d (size %d, self %d)", rank, p.size, p.rank)}
	}
	return p.peers[rank], nil
}

// recv pops the next packet from rank `from` out of the mailbox of tag's
// band under the I/O deadline, checks its tag and moves its payload into
// dst (a fresh slice when dst is nil).
func (p *Proc) recv(from int, dst []complex128, op string, tag int) ([]complex128, error) {
	pe, err := p.peerOf(from, op)
	if err != nil {
		return nil, err
	}
	pkt, err := pe.boxFor(tag).get(p.IOTimeout())
	if err != nil {
		if errors.Is(err, ErrDeadline) && pe.alive() == nil { // a dead link's failure is booked already
			p.stats.deadlineEvents.Add(1)
			p.rec.Load().CountDeadline()
			p.flightFault(err)
		}
		return nil, &TransportError{Rank: from, Op: op, Err: err}
	}
	if pkt.tag != tag {
		_, _ = pe.link.payload(nil, pkt) // hands a lent chunk back to its lender
		return nil, &TransportError{Rank: from, Op: op,
			Err: fmt.Errorf("%w: want %d got %d", ErrTagMismatch, tag, pkt.tag)}
	}
	out, err := pe.link.payload(dst, pkt)
	if err != nil {
		return nil, &TransportError{Rank: from, Op: op, Err: err}
	}
	return out, nil
}

// Reserved tags of the collectives and of ShareTraceID's control frame,
// in the collective band (exch.BandOf).
const (
	tagGather  = -4
	tagBarrier = -5
	tagTraceID = -7
)

// Alltoall is the equal-counts personalized exchange into a fresh
// buffer: the one-chunk stream of exch.Alltoall. A send that is not
// size·chunk elements is a typed *TransportError, before any traffic.
func (p *Proc) Alltoall(send []complex128, chunk int) ([]complex128, error) {
	if len(send) != p.size*chunk {
		return nil, &TransportError{Rank: p.rank, Op: "alltoall",
			Err: fmt.Errorf("send length %d, want %d", len(send), p.size*chunk)}
	}
	recv := make([]complex128, len(send))
	if err := exch.Alltoall(p, recv, send, chunk); err != nil {
		return nil, err
	}
	return recv, nil
}

// Gather concatenates equal-length chunks at root: the result at root
// is size*len(chunk) elements ordered by rank; other ranks get nil. A
// peer whose chunk length disagrees with root's is a typed
// *TransportError naming that peer.
func (p *Proc) Gather(root int, chunk []complex128) ([]complex128, error) {
	if p.rank != root {
		return nil, p.Send(root, tagGather, chunk)
	}
	p.stats.gathers.Add(1)
	out := make([]complex128, len(chunk)*p.size)
	copy(out[p.rank*len(chunk):], chunk)
	for r := 0; r < p.size; r++ {
		if r == root {
			continue
		}
		if _, err := p.recv(r, out[r*len(chunk):(r+1)*len(chunk)], "gather", tagGather); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Barrier blocks until every rank has entered (gather at 0, then notify).
func (p *Proc) Barrier() error {
	if p.rank != 0 {
		if err := p.Send(0, tagBarrier, nil); err != nil {
			return err
		}
		_, err := p.RecvC(0, tagBarrier)
		return err
	}
	for r := 1; r < p.size; r++ {
		if _, err := p.RecvC(r, tagBarrier); err != nil {
			return err
		}
	}
	for r := 1; r < p.size; r++ {
		if err := p.Send(r, tagBarrier, nil); err != nil {
			return err
		}
	}
	return nil
}

// link carries the packets of one peer: a framed socket (sockLink) or an
// in-process hand-off to the peer Proc's mailboxes (memLink).
type link interface {
	// send posts an ordinary message; data is the caller's again on return.
	send(tag int, data []complex128) error
	// sendChunk posts stream s's chunk, wire, under tag.
	sendChunk(s *stream, tag int, wire []complex128) error
	// payload moves a received packet's payload into dst (a fresh slice
	// when dst is nil) and recycles what carried it.
	payload(dst []complex128, pkt packet) ([]complex128, error)
	// cut stops the carrier once the link has failed with cause.
	cut(cause error)
	close()
	shutdown()
}

// packet is one received message: its tag and its payload — a socket
// frame's wire image (raw, on loan from the link's buffer list until
// payload), or in process a Send's recycled copy (data) or a stream
// chunk lent by reference (loan).
type packet struct {
	tag  int
	raw  []byte
	data []complex128
	loan *loan
}

// bandStats is one link's traffic in one tag band: the payloads its
// successful sends posted, and the frames it carried out and in — on a
// socket flushed or read, header and payload; in process handed over,
// the payload alone.
type bandStats struct{ posted, out, in tally }

// tally counts messages or frames and their bytes.
type tally struct{ n, bytes atomic.Int64 }

func (t *tally) add(bytes int) {
	t.n.Add(1)
	t.bytes.Add(int64(bytes))
}

func (t *tally) load() exch.Traffic { return exch.Traffic{Messages: t.n.Load(), Bytes: t.bytes.Load()} }

// wireStats is one link's timing and error counters.
type wireStats struct {
	flushNs       atomic.Int64 // writer time pushing data frames into the socket: its service time
	creditStallNs atomic.Int64 // streamed sends blocked on a full credit window
	rttNs         atomic.Int64 // the latest heartbeat echo round trip
	sendErrors    atomic.Int64
}

// peer is this rank's end of the link to one rank: the mailboxes its
// packets land in and the counters of its traffic, both by tag band, and
// the link's failure.
type peer struct {
	rank  int
	pr    *Proc // back-reference for the I/O deadline and counters
	link  link
	box   *mailbox // ordinary messages
	sbox  *mailbox // streamed-exchange chunks (exch.BandStream)
	tbox  *mailbox // telemetry stat frames (exch.BandTelemetry)
	bands [exch.NumBands]bandStats
	wire  wireStats

	failed  atomic.Bool
	failErr error         // cause; written before dead closes
	dead    chan struct{} // closed once the link has failed
}

func newPeer(rank int, pr *Proc) *peer {
	return &peer{rank: rank, pr: pr, box: newMailbox(), sbox: newMailbox(), tbox: newMailbox(),
		dead: make(chan struct{})}
}

// boxFor routes a packet by tag band. Stream chunks and telemetry frames
// get their own mailboxes: their consumers (the stream's receiver
// goroutines, rank 0's telemetry drain) run concurrently with ordinary
// receives (halo, parity) on the same link, and a shared FIFO would let
// any consumer pop another's packet.
func (pe *peer) boxFor(tag int) *mailbox {
	switch exch.BandOf(tag) {
	case exch.BandStream:
		return pe.sbox
	case exch.BandTelemetry:
		return pe.tbox
	}
	return pe.box
}

// band returns the counters of tag's band.
func (pe *peer) band(tag int) *bandStats { return &pe.bands[exch.BandOf(tag)] }

// linkStat snapshots the link's counters, its frames and bytes summed
// over the bands.
func (pe *peer) linkStat() telemetry.LinkStat {
	l := telemetry.LinkStat{
		Peer:           pe.rank,
		FlushNs:        pe.wire.flushNs.Load(),
		CreditStallNs:  pe.wire.creditStallNs.Load(),
		HeartbeatRTTNs: pe.wire.rttNs.Load(),
		SendErrors:     pe.wire.sendErrors.Load(),
	}
	for b := range pe.bands {
		out, in := pe.bands[b].out.load(), pe.bands[b].in.load()
		l.FramesSent += out.Messages
		l.BytesSent += out.Bytes
		l.FramesReceived += in.Messages
		l.BytesReceived += in.Bytes
	}
	return l
}

// fail marks the link dead once: it records the cause, wakes blocked
// senders and receivers (queued packets stay readable: they arrived
// before the fault) and has the link cut its carrier. A flag, not a
// sync.Once: cutting a memory link fails its other end, which cuts back.
func (pe *peer) fail(cause error) {
	if !pe.failed.CompareAndSwap(false, true) {
		return
	}
	pe.failErr = cause
	pe.pr.noteFailure(cause)
	close(pe.dead)
	for _, m := range []*mailbox{pe.box, pe.sbox, pe.tbox} {
		m.kill(cause)
	}
	pe.link.cut(cause)
}

// failure returns the recorded cause, waiting until the link has failed.
func (pe *peer) failure() error {
	<-pe.dead
	return pe.failErr
}

// alive returns nil, or the cause once the link has failed.
func (pe *peer) alive() error {
	select {
	case <-pe.dead:
		return pe.failErr
	default:
		return nil
	}
}

// mailbox is an unbounded FIFO of received packets with a typed death
// cause and deadline-bounded waits. Unboundedness gives MPI's buffered
// standard-send semantics, so an SPMD exchange where every rank posts all
// sends before any receive cannot deadlock.
type mailbox struct {
	mu     sync.Mutex
	queue  []packet
	head   int // next packet to pop; the queue rewinds when it drains
	dead   bool
	cause  error
	notify chan struct{} // 1-buffered wake-up, passed on while packets remain
}

func newMailbox() *mailbox {
	return &mailbox{notify: make(chan struct{}, 1)}
}

func (m *mailbox) put(p packet) {
	m.mu.Lock()
	m.queue = append(m.queue, p)
	m.mu.Unlock()
	m.wake()
}

// kill marks the mailbox dead with a cause; queued packets stay
// readable (they arrived intact before the fault).
func (m *mailbox) kill(cause error) {
	m.mu.Lock()
	if !m.dead {
		m.dead = true
		m.cause = cause
	}
	m.mu.Unlock()
	m.wake()
}

func (m *mailbox) wake() {
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// get pops the next packet, waiting at most timeout (0 = forever). It
// returns the link's death cause once the queue is empty and the link is
// dead, or ErrDeadline if nothing arrives in time. A consumer that
// leaves packets (or the death) behind passes the wake-up on, so a
// second consumer — a stream abandoned mid-schedule and its successor —
// never sleeps through one.
func (m *mailbox) get(timeout time.Duration) (packet, error) {
	var expire <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expire = t.C
	}
	for {
		m.mu.Lock()
		if m.head < len(m.queue) {
			p := m.queue[m.head]
			m.queue[m.head] = packet{}
			if m.head++; m.head == len(m.queue) {
				// Drained: rewind so put reuses the backing array instead
				// of growing a fresh one behind an ever-advancing window.
				m.queue, m.head = m.queue[:0], 0
			}
			more := m.head < len(m.queue)
			m.mu.Unlock()
			if more {
				m.wake()
			}
			return p, nil
		}
		if m.dead {
			cause := m.cause
			m.mu.Unlock()
			m.wake()
			if cause == nil {
				cause = ErrPeerClosed
			}
			return packet{}, cause
		}
		m.mu.Unlock()
		select {
		case <-m.notify:
		case <-expire:
			return packet{}, fmt.Errorf("%w: no message within %v", ErrDeadline, timeout)
		}
	}
}
