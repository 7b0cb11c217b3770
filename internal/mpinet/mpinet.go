// Package mpinet is a TCP transport for the distributed SOI driver: the
// same core.Comm surface as the in-process runtime, but between real
// processes over real sockets (stdlib net only). Ranks form a full mesh —
// rank r dials every lower rank and accepts from every higher one — and
// exchange length-prefixed frames of complex128 data.
//
// The wire layer is hardened for real fabrics: every frame carries a
// magic word and a CRC32C checksum covering header and payload, frame
// lengths are bounded by MaxFrameElems before any allocation, and an
// optional per-operation I/O deadline (SetIOTimeout) bounds every send,
// receive, and idle wait. With a deadline set, each link emits heartbeat
// frames while idle, so a silently hung peer is detected within one
// deadline instead of never. Every wire anomaly — checksum mismatch,
// oversized or malformed frame, reset, timeout, peer death — surfaces as
// a typed *TransportError naming the peer rank and the operation,
// returned from the failing call.
//
// It exists to show the algorithm end-to-end outside a single address
// space (cmd/soinode runs one rank per OS process); the in-process
// runtime remains the tool for experiments because it can count traffic
// and simulate fabrics.
package mpinet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"soifft/internal/exch"
	"soifft/internal/instrument"
	"soifft/internal/telemetry"
	"soifft/internal/trace"
)

// Node is a rank that has opened its listener but not yet met its peers.
type Node struct {
	rank, size     int
	ln             net.Listener
	connectTimeout time.Duration
	dialInterval   time.Duration
	wrap           func(peerRank int, c net.Conn) net.Conn
}

// DefaultConnectTimeout is how long Connect waits for the full mesh
// (every dial and accept) before giving up.
const DefaultConnectTimeout = 15 * time.Second

// MaxFrameElems caps the complex128 element count a frame header may
// claim (1<<26 elements = 1 GiB of payload). It bounds the allocation a
// corrupted or hostile length field can trigger; larger counts kill the
// link with ErrFrameTooLarge instead of attempting the allocation.
var MaxFrameElems = 1 << 26

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
)

// PeerError reports a peer that could not be reached while forming the
// mesh; it names the peer's rank and address and wraps the underlying
// cause.
type PeerError struct {
	Rank int
	Addr string
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("mpinet: peer rank %d at %s unreachable: %v", e.Rank, e.Addr, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// TransportError is the typed failure of an established link (a
// core.Fault): the peer rank involved, the operation that observed the
// fault ("send", "recv", "alltoall", ...), and the wire-level cause (one
// of the Err* sentinels or an OS error).
type TransportError struct {
	Rank int    // peer rank on the failed link
	Op   string // operation that observed the fault
	Err  error  // wire-level cause
}

func (e *TransportError) Error() string {
	return fmt.Sprintf("mpinet: %s involving rank %d failed: %v", e.Op, e.Rank, e.Err)
}

func (e *TransportError) Unwrap() error { return e.Err }

// CommFault marks the error as a typed communication fault.
func (e *TransportError) CommFault() {}

// Timeout reports whether the fault was a deadline expiry.
func (e *TransportError) Timeout() bool {
	if errors.Is(e.Err, ErrDeadline) || errors.Is(e.Err, os.ErrDeadlineExceeded) {
		return true
	}
	var ne net.Error
	return errors.As(e.Err, &ne) && ne.Timeout()
}

// NewNode starts rank's listener on listenAddr (use "127.0.0.1:0" to let
// the OS choose a port; Addr reports the result).
func NewNode(rank, size int, listenAddr string) (*Node, error) {
	if size <= 0 || rank < 0 || rank >= size {
		return nil, fmt.Errorf("mpinet: rank %d out of range for size %d", rank, size)
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("mpinet: listen: %w", err)
	}
	return &Node{
		rank: rank, size: size, ln: ln,
		connectTimeout: DefaultConnectTimeout,
		dialInterval:   150 * time.Millisecond,
	}, nil
}

// SetConnectTimeout bounds how long Connect waits for the whole mesh to
// form (peers may start in arbitrary order, so dials retry and accepts
// wait until this deadline). Non-positive d restores the default.
func (n *Node) SetConnectTimeout(d time.Duration) {
	if d <= 0 {
		d = DefaultConnectTimeout
	}
	n.connectTimeout = d
}

// SetConnWrapper installs f over every peer link, applied right after
// the hello exchange — the hook internal/faultnet uses to inject faults
// into live meshes (`soinode -fault-plan`) and chaos tests. f receives
// the peer's rank so each link can draw its own deterministic fault
// stream. Call before Connect.
func (n *Node) SetConnWrapper(f func(peerRank int, c net.Conn) net.Conn) {
	n.wrap = f
}

// Addr returns the listener's address for sharing with peers.
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Connect completes the mesh: addrs[r] must hold every rank's listen
// address (addrs[n.rank] is ignored). Blocks until all size-1 links are
// up, then returns the ready communicator.
func (n *Node) Connect(addrs []string) (*Proc, error) {
	if len(addrs) != n.size {
		return nil, fmt.Errorf("mpinet: need %d addresses, got %d", n.size, len(addrs))
	}
	p := &Proc{rank: n.rank, size: n.size, peers: make([]*peer, n.size)}
	deadline := time.Now().Add(n.connectTimeout)

	// Dial lower ranks, identifying ourselves with an 8-byte hello.
	// Peers may not have opened their listeners yet (processes start in
	// arbitrary order), so retry until the connect deadline.
	for r := 0; r < n.rank; r++ {
		conn, err := dialRetry(addrs[r], deadline, n.dialInterval, &p.stats.dialRetries)
		if err != nil {
			return nil, &PeerError{Rank: r, Addr: addrs[r],
				Err: fmt.Errorf("rank %d gave up dialing after %v: %w", n.rank, n.connectTimeout, err)}
		}
		var hello [8]byte
		binary.LittleEndian.PutUint64(hello[:], uint64(n.rank))
		if _, err := conn.Write(hello[:]); err != nil {
			return nil, &PeerError{Rank: r, Addr: addrs[r], Err: fmt.Errorf("hello: %w", err)}
		}
		if n.wrap != nil {
			conn = n.wrap(r, conn)
		}
		p.peers[r] = newPeer(conn, r, p)
	}
	// Accept higher ranks, bounded by the same deadline.
	if tl, ok := n.ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(deadline)
	}
	for got := n.rank + 1; got < n.size; got++ {
		conn, err := n.ln.Accept()
		if err != nil {
			missing := n.size - got
			return nil, fmt.Errorf("mpinet: rank %d timed out waiting for %d higher rank(s) to connect within %v: %w",
				n.rank, missing, n.connectTimeout, err)
		}
		var hello [8]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return nil, fmt.Errorf("mpinet: reading hello: %w", err)
		}
		r := int(binary.LittleEndian.Uint64(hello[:]))
		if r <= n.rank || r >= n.size || p.peers[r] != nil {
			return nil, fmt.Errorf("mpinet: unexpected hello from rank %d", r)
		}
		if n.wrap != nil {
			conn = n.wrap(r, conn)
		}
		p.peers[r] = newPeer(conn, r, p)
	}
	_ = n.ln.Close()
	for _, pe := range p.peers {
		if pe != nil {
			go pe.readLoop()
			go pe.writeLoop()
		}
	}
	return p, nil
}

// dialRetry dials with a fixed retry interval while peers are still
// launching, giving up at the deadline; retries tick the given counter.
func dialRetry(addr string, deadline time.Time, interval time.Duration, retries *atomic.Int64) (net.Conn, error) {
	var lastErr error
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if lastErr == nil {
				lastErr = fmt.Errorf("connect deadline passed")
			}
			return nil, lastErr
		}
		dialBudget := remaining
		if dialBudget > 2*time.Second {
			dialBudget = 2 * time.Second
		}
		conn, err := net.DialTimeout("tcp", addr, dialBudget)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		retries.Add(1)
		if time.Until(deadline) < interval {
			return nil, lastErr
		}
		time.Sleep(interval)
	}
}

// Proc is a connected rank; it satisfies core.Comm.
type Proc struct {
	rank, size  int
	peers       []*peer
	ioTimeoutNs atomic.Int64
	rec         atomic.Pointer[instrument.Recorder]
	tr          atomic.Pointer[trace.Tracer]
	traceID     atomic.Uint64
	stats       netStats
}

// netStats is the transport's internal accumulator (atomic counters).
type netStats struct {
	framesSent, bytesSent         atomic.Int64
	framesReceived, bytesReceived atomic.Int64
	heartbeatsSent                atomic.Int64
	dialRetries                   atomic.Int64
	deadlineEvents                atomic.Int64
	checksumErrors                atomic.Int64
	linkFailures                  atomic.Int64
}

// NetStats is a point-in-time snapshot of a rank's wire activity since
// Connect. Frame and byte counts cover data frames only (header plus
// payload); keep-alives are reported separately as HeartbeatsSent.
type NetStats struct {
	// FramesSent/BytesSent count data frames this rank wrote.
	FramesSent, BytesSent int64
	// FramesReceived/BytesReceived count validated data frames read.
	FramesReceived, BytesReceived int64
	// HeartbeatsSent counts keep-alive frames written on idle links.
	HeartbeatsSent int64
	// DialRetries counts redials while the mesh formed.
	DialRetries int64
	// DeadlineEvents counts expired I/O deadlines (hung-peer detections).
	DeadlineEvents int64
	// ChecksumErrors counts frames rejected with CRC mismatches.
	ChecksumErrors int64
	// LinkFailures counts links declared dead (any cause).
	LinkFailures int64
}

// Stats snapshots the transport counters.
func (p *Proc) Stats() NetStats {
	return NetStats{
		FramesSent:     p.stats.framesSent.Load(),
		BytesSent:      p.stats.bytesSent.Load(),
		FramesReceived: p.stats.framesReceived.Load(),
		BytesReceived:  p.stats.bytesReceived.Load(),
		HeartbeatsSent: p.stats.heartbeatsSent.Load(),
		DialRetries:    p.stats.dialRetries.Load(),
		DeadlineEvents: p.stats.deadlineEvents.Load(),
		ChecksumErrors: p.stats.checksumErrors.Load(),
		LinkFailures:   p.stats.linkFailures.Load(),
	}
}

// SetRecorder mirrors transport fault events (deadline expiries,
// checksum rejections, dial retries) into an observability recorder, so
// a plan's CommReport surfaces wire trouble alongside its own traffic
// counts. Payload bytes are NOT mirrored — the distributed driver
// already counts logical traffic at the Comm layer — only fault events.
// nil detaches.
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
// single send, receive, or idle wait may take before the link is
// declared dead with a typed ErrDeadline fault. While a deadline is set,
// idle links carry heartbeat frames (every d/3), so a healthy-but-quiet
// peer is never misdeclared, and a hung one is caught within ~d.
// d <= 0 disables deadlines (the pre-hardening blocking behavior).
// Call right after Connect, before the first collective.
func (p *Proc) SetIOTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.ioTimeoutNs.Store(int64(d))
}

// IOTimeout returns the current per-operation deadline (0 = none).
func (p *Proc) IOTimeout() time.Duration {
	return time.Duration(p.ioTimeoutNs.Load())
}

// Close tears down all links.
func (p *Proc) Close() {
	for _, pe := range p.peers {
		if pe != nil {
			pe.close()
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
// release the sockets.
func (p *Proc) Shutdown() {
	for _, pe := range p.peers {
		if pe != nil {
			pe.shutdown()
		}
	}
}

// Send transmits data to rank `to`. Asynchronous: the frame is queued
// for the writer. If the link to `to` has already failed, Send returns
// the peer's typed *TransportError instead of queueing into the void (or
// blocking forever on a full queue — the fail-fast path for dead peers).
func (p *Proc) Send(to, tag int, data []complex128) error {
	pe, err := p.peerOf(to, "send")
	if err != nil {
		return err
	}
	if err := pe.sendFrame(pe.encode(tag, data), nil); err != nil {
		pe.wire.sendErrors.Add(1)
		return &TransportError{Rank: to, Op: "send", Err: err}
	}
	return nil
}

// RecvC blocks for the next frame from rank `from` and checks its tag.
// A dead link, a corrupted frame, or an expired I/O deadline returns a
// typed *TransportError naming `from`.
func (p *Proc) RecvC(from, tag int) ([]complex128, error) {
	pe, err := p.peerOf(from, "recv")
	if err != nil {
		return nil, err
	}
	return p.recvFrame(pe, pe.box, nil, tag)
}

// RecvInto is RecvC into the caller's buffer: the payload is decoded from
// the link's reusable wire buffer straight into dst, whose length the
// frame must match.
func (p *Proc) RecvInto(dst []complex128, from, tag int) error {
	pe, err := p.peerOf(from, "recv")
	if err != nil {
		return err
	}
	_, err = p.recvFrame(pe, pe.box, dst, tag)
	return err
}

// peerOf returns the link to rank, or for a rank outside the world (or
// this rank itself, which has no link) a *TransportError of op — the
// same typed failure as a dead link, never a panic.
func (p *Proc) peerOf(rank int, op string) (*peer, error) {
	if rank < 0 || rank >= p.size || rank == p.rank {
		return nil, &TransportError{Rank: rank, Op: op,
			Err: fmt.Errorf("invalid rank %d (size %d, self %d)", rank, p.size, p.rank)}
	}
	return p.peers[rank], nil
}

// recvFrame pops the next frame of one peer mailbox, checks its tag and
// decodes it into dst (a fresh slice when dst is nil). Ordinary receives
// and the streamed exchange each drain their own box, so their consumers
// never race for a frame.
func (p *Proc) recvFrame(pe *peer, box *netMailbox, dst []complex128, tag int) ([]complex128, error) {
	pkt, err := box.get(p.IOTimeout())
	if err != nil {
		select {
		case <-pe.dead:
			// The link's own failure was already booked by noteFailure.
		default:
			if errors.Is(err, ErrDeadline) {
				p.stats.deadlineEvents.Add(1)
				p.rec.Load().CountDeadline()
				p.flightFault(err)
			}
		}
		return nil, &TransportError{Rank: pe.rank, Op: "recv", Err: err}
	}
	if pkt.tag != tag {
		return nil, &TransportError{Rank: pe.rank, Op: "recv",
			Err: fmt.Errorf("tag mismatch: want %d got %d", tag, pkt.tag)}
	}
	return pe.decode(dst, pkt)
}

// Alltoall is the equal-counts personalized exchange into a fresh
// buffer: the one-chunk stream of exch.Alltoall, one frame per peer. A
// send that is not size·chunk elements is a typed *TransportError,
// before any traffic.
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

// Gather concatenates equal-length chunks at root (nil elsewhere).
func (p *Proc) Gather(root int, chunk []complex128) ([]complex128, error) {
	const tag = -4
	if p.rank != root {
		return nil, p.Send(root, tag, chunk)
	}
	out := make([]complex128, len(chunk)*p.size)
	copy(out[p.rank*len(chunk):], chunk)
	for r := 0; r < p.size; r++ {
		if r == root {
			continue
		}
		if err := p.RecvInto(out[r*len(chunk):(r+1)*len(chunk)], r, tag); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Barrier blocks until every rank has entered (gather at 0, then notify).
func (p *Proc) Barrier() error {
	const tag = -5
	if p.rank != 0 {
		if err := p.Send(0, tag, nil); err != nil {
			return err
		}
		_, err := p.RecvC(0, tag)
		return err
	}
	for r := 1; r < p.size; r++ {
		if _, err := p.RecvC(r, tag); err != nil {
			return err
		}
	}
	for r := 1; r < p.size; r++ {
		if err := p.Send(r, tag, nil); err != nil {
			return err
		}
	}
	return nil
}

// --- wire details ---

// Frame layout: [tag int64][count uint64][crc32c uint32][magic uint32]
// followed by count little-endian complex128 values. The CRC covers the
// first 16 header bytes plus the payload; the trailing magic word lets
// the reader distinguish a desynchronized stream from a checksum-only
// corruption.
const (
	frameHdrLen = 24
	frameMagic  = 0x33494F53 // "SOI3" little-endian; "SOI2" peers order chunk elements row-major, "SOI1" peers code parity differently

	// tagHeartbeat marks the empty keep-alive frames idle links carry
	// while an I/O deadline is armed; readers drop them silently.
	tagHeartbeat = -1 << 62

	// ioChunk is the unit of deadline refresh: large frames move in
	// chunks this big, each under a fresh deadline, so a slow-but-live
	// link is judged on progress while a stalled one still dies within
	// one deadline.
	ioChunk = 256 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// epoch anchors the monotonic timestamps heartbeat pings carry. Only
// the stamping process ever interprets them (the peer reflects the bits
// verbatim), so no cross-host clock agreement is needed.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// heartbeatFrame encodes one keep-alive: a single element whose real
// bits carry the ping's monotonic timestamp and whose imaginary part
// marks it as ping (0) or echo (1). The sender of the ping turns the
// reflected timestamp into the link's RTT sample. Legacy empty
// keep-alives (count 0) remain valid and are dropped silently.
func heartbeatFrame(ts int64, echo bool) []byte {
	marker := 0.0
	if echo {
		marker = 1
	}
	return encodeFrame(tagHeartbeat, []complex128{complex(math.Float64frombits(uint64(ts)), marker)})
}

// encodeFrame lays out one frame in a fresh buffer.
func encodeFrame(tag int, data []complex128) []byte {
	return putFrame(make([]byte, frameHdrLen+16*len(data)), tag, data)
}

// putFrame lays out the header and payload in buf (exactly the frame's
// length) and stamps the checksum.
func putFrame(buf []byte, tag int, data []complex128) []byte {
	binary.LittleEndian.PutUint64(buf[:8], uint64(int64(tag)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(len(data)))
	binary.LittleEndian.PutUint32(buf[20:24], frameMagic)
	for i, v := range data {
		binary.LittleEndian.PutUint64(buf[frameHdrLen+i*16:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(buf[frameHdrLen+i*16+8:], math.Float64bits(imag(v)))
	}
	crc := crc32.Checksum(buf[:16], castagnoli)
	crc = crc32.Update(crc, castagnoli, buf[frameHdrLen:])
	binary.LittleEndian.PutUint32(buf[16:20], crc)
	return buf
}

// packet is one validated inbound frame: its tag and the payload's wire
// image, in a buffer on loan from the link's pool until decode.
type packet struct {
	tag int
	raw []byte
}

// outFrame is one queued wire frame: the encoded bytes plus an optional
// flush notification, invoked by the writer after the frame's last byte
// reached the socket. The callback is the windowed stream's credit
// release — it is never invoked if the link dies first (senders observe
// the death through pe.dead instead). Control frames (heartbeats) are
// excluded from the data-frame counters and flush timing.
type outFrame struct {
	buf     []byte
	flushed func()
	control bool
}

// wireStats is one directed link's counters — the per-peer split of
// netStats that telemetry.LinkStat is built from.
type wireStats struct {
	framesSent, bytesSent         atomic.Int64
	framesReceived, bytesReceived atomic.Int64
	// flushNs is wall time the writer spent pushing this link's data
	// frames into the socket: its effective service time.
	flushNs atomic.Int64
	// creditStallNs is time streamed sends to this peer spent blocked on
	// a full credit window.
	creditStallNs atomic.Int64
	// rttNs holds the latest heartbeat echo round-trip sample.
	rttNs      atomic.Int64
	sendErrors atomic.Int64
}

type peer struct {
	rank int
	conn net.Conn
	out  chan outFrame
	box  *netMailbox
	sbox *netMailbox // streamed-exchange chunk frames (tag band <= exch.TagBase)
	tbox *netMailbox // telemetry stat frames (tag telemetry.TagStat)
	pr   *Proc       // back-reference for the I/O deadline and wire counters
	wire wireStats
	// sendBufs and recvBufs are the reusable wire buffers of outbound
	// frames and inbound payloads: after the first exchange of a given
	// shape the link moves frames without allocating. Separate lists, so
	// neither direction takes the buffer the other was sized with.
	sendBufs, recvBufs exch.FreeList[byte]
	// echo hands a received ping's timestamp to the writer for
	// reflection. It bypasses pe.out, which close/shutdown may have
	// closed while reads are still draining.
	echo chan int64

	outOnce   sync.Once // closes out exactly once (close and shutdown share it)
	closeOnce sync.Once
	drained   chan struct{} // closed when writeLoop has exited

	failOnce sync.Once
	failErr  error         // cause; written before dead closes
	dead     chan struct{} // closed once the link has failed
}

func newPeer(conn net.Conn, rank int, pr *Proc) *peer {
	return &peer{
		rank:    rank,
		conn:    conn,
		out:     make(chan outFrame, 4096),
		box:     newNetMailbox(),
		sbox:    newNetMailbox(),
		tbox:    newNetMailbox(),
		pr:      pr,
		echo:    make(chan int64, 1),
		drained: make(chan struct{}),
		dead:    make(chan struct{}),
	}
}

func (pe *peer) timeout() time.Duration {
	return time.Duration(pe.pr.ioTimeoutNs.Load())
}

// fail marks the link dead exactly once: it records the cause, wakes
// blocked senders and receivers, and closes the socket so both loops
// unwind promptly and consistently.
func (pe *peer) fail(cause error) {
	pe.failOnce.Do(func() {
		pe.failErr = cause
		pe.pr.noteFailure(cause)
		close(pe.dead)
		pe.box.kill(cause)
		pe.sbox.kill(cause)
		pe.tbox.kill(cause)
		_ = pe.conn.Close()
	})
}

// failure returns the recorded cause; only valid after dead is closed.
func (pe *peer) failure() error {
	<-pe.dead
	return pe.failErr
}

// encode lays out one data frame in a pooled buffer, which the writer
// returns once the frame is written. The payload is copied here, so the
// caller's slice is its own again on return.
func (pe *peer) encode(tag int, data []complex128) []byte {
	return putFrame(pe.sendBufs.Get(frameHdrLen+16*len(data)), tag, data)
}

// decode converts a received payload into dst (a fresh slice when dst is
// nil) and returns the wire buffer to the pool.
func (pe *peer) decode(dst []complex128, pkt packet) ([]complex128, error) {
	n := len(pkt.raw) / 16
	if dst == nil {
		dst = make([]complex128, n)
	} else if len(dst) != n {
		pe.recvBufs.Put(pkt.raw)
		return nil, &TransportError{Rank: pe.rank, Op: "recv",
			Err: fmt.Errorf("expected %d elements, got %d", len(dst), n)}
	}
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(pkt.raw[i*16:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(pkt.raw[i*16+8:]))
		dst[i] = complex(re, im)
	}
	pe.recvBufs.Put(pkt.raw)
	return dst, nil
}

// sendFrame queues a frame for the writer, failing fast if the link is
// dead (a failed writeLoop no longer drains out at full rate, so
// blocking on a dead peer's queue would hang forever once 4096 frames
// pile up). The optional flush callback is run by the writer once the
// frame's bytes have all reached the socket; if the link dies before the
// frame flushes, the callback is dropped along with the frame.
func (pe *peer) sendFrame(frame []byte, flushed func()) error {
	select {
	case <-pe.dead:
		return pe.failure()
	default:
	}
	select {
	case pe.out <- outFrame{buf: frame, flushed: flushed}:
		return nil
	case <-pe.dead:
		return pe.failure()
	}
}

// classify folds OS-level errors into the package's typed causes.
func classify(err error, d time.Duration) error {
	switch {
	case errors.Is(err, os.ErrDeadlineExceeded):
		return fmt.Errorf("%w after %v (peer hung, dead, or too slow)", ErrDeadline, d)
	case errors.Is(err, io.EOF), errors.Is(err, io.ErrUnexpectedEOF),
		errors.Is(err, net.ErrClosed):
		return fmt.Errorf("%w: %v", ErrPeerClosed, err)
	default:
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return fmt.Errorf("%w after %v: %v", ErrDeadline, d, err)
		}
		return fmt.Errorf("%w: %v", ErrPeerClosed, err)
	}
}

// writeFrame moves one frame in deadline-refreshed chunks.
func (pe *peer) writeFrame(frame []byte) error {
	for off := 0; off < len(frame); off += ioChunk {
		end := off + ioChunk
		if end > len(frame) {
			end = len(frame)
		}
		if d := pe.timeout(); d > 0 {
			_ = pe.conn.SetWriteDeadline(time.Now().Add(d))
		}
		if _, err := pe.conn.Write(frame[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// writeLoop drains the send queue; with a deadline armed it inserts
// heartbeat frames whenever the link has been idle for a third of it.
// On a write error it marks the peer dead and keeps draining the queue
// (discarding) so senders blocked on a full queue are never stranded.
func (pe *peer) writeLoop() {
	defer close(pe.drained)
	for {
		var fr outFrame
		var ok bool
		if d := pe.timeout(); d > 0 {
			t := time.NewTimer(d / 3)
			select {
			case fr, ok = <-pe.out:
				t.Stop()
			case ts := <-pe.echo:
				t.Stop()
				fr, ok = outFrame{buf: heartbeatFrame(ts, true), control: true}, true
			case <-t.C:
				fr, ok = outFrame{buf: heartbeatFrame(nowNs(), false), control: true}, true
			}
		} else {
			// No deadline: poll so a later SetIOTimeout still takes
			// effect on an idle link (no heartbeats are sent meanwhile,
			// but pings from a deadline-armed peer are still echoed).
			t := time.NewTimer(500 * time.Millisecond)
			select {
			case fr, ok = <-pe.out:
				t.Stop()
			case ts := <-pe.echo:
				t.Stop()
				fr, ok = outFrame{buf: heartbeatFrame(ts, true), control: true}, true
			case <-t.C:
				continue
			}
		}
		if !ok {
			return
		}
		start := time.Now()
		if err := pe.writeFrame(fr.buf); err != nil {
			pe.fail(classify(err, pe.timeout()))
			for range pe.out { // drain until close() closes the channel
			}
			return
		}
		if fr.control {
			pe.pr.stats.heartbeatsSent.Add(1)
		} else {
			pe.pr.stats.framesSent.Add(1)
			pe.pr.stats.bytesSent.Add(int64(len(fr.buf)))
			pe.wire.framesSent.Add(1)
			pe.wire.bytesSent.Add(int64(len(fr.buf)))
			pe.wire.flushNs.Add(int64(time.Since(start)))
			pe.sendBufs.Put(fr.buf)
		}
		// Notified last, so whoever waits on the flush finds the
		// buffer already back in the pool.
		if fr.flushed != nil {
			fr.flushed()
		}
	}
}

// handleHeartbeat reacts to a validated keep-alive payload: a ping is
// reflected back through the writer's echo slot (never the closable out
// queue), an echo closes the loop into an RTT sample. The empty legacy
// form is dropped without a reply.
func (pe *peer) handleHeartbeat(raw []byte) {
	if len(raw) < 16 {
		return
	}
	ts := int64(binary.LittleEndian.Uint64(raw[:8]))
	if binary.LittleEndian.Uint64(raw[8:16]) == 0 { // imag 0: ping
		select {
		case pe.echo <- ts:
		default: // an echo is already queued; this ping's sample is lost
		}
		return
	}
	if rtt := nowNs() - ts; rtt > 0 {
		pe.wire.rttNs.Store(rtt)
	}
}

// readFull fills buf in deadline-refreshed chunks.
func (pe *peer) readFull(buf []byte) error {
	for len(buf) > 0 {
		n := len(buf)
		if n > ioChunk {
			n = ioChunk
		}
		if d := pe.timeout(); d > 0 {
			_ = pe.conn.SetReadDeadline(time.Now().Add(d))
		}
		if _, err := io.ReadFull(pe.conn, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
	}
	return nil
}

// readLoop validates and delivers inbound frames, killing the link with
// a typed cause on the first anomaly.
func (pe *peer) readLoop() {
	hdr := make([]byte, frameHdrLen)
	for {
		if err := pe.readFull(hdr); err != nil {
			pe.fail(classify(err, pe.timeout()))
			return
		}
		if m := binary.LittleEndian.Uint32(hdr[20:24]); m != frameMagic {
			pe.fail(fmt.Errorf("%w: magic %#x, want %#x", ErrBadFrame, m, frameMagic))
			return
		}
		tag := int(int64(binary.LittleEndian.Uint64(hdr[:8])))
		count := binary.LittleEndian.Uint64(hdr[8:16])
		if count > uint64(MaxFrameElems) {
			pe.fail(fmt.Errorf("%w: header claims %d elements (limit %d)",
				ErrFrameTooLarge, count, MaxFrameElems))
			return
		}
		raw := pe.recvBufs.Get(int(count) * 16)
		if err := pe.readFull(raw); err != nil {
			pe.fail(classify(err, pe.timeout()))
			return
		}
		crc := crc32.Checksum(hdr[:16], castagnoli)
		crc = crc32.Update(crc, castagnoli, raw)
		if want := binary.LittleEndian.Uint32(hdr[16:20]); crc != want {
			pe.fail(fmt.Errorf("%w: computed %#x, frame says %#x", ErrChecksum, crc, want))
			return
		}
		if tag == tagHeartbeat {
			pe.handleHeartbeat(raw)
			pe.recvBufs.Put(raw)
			continue
		}
		pe.pr.stats.framesReceived.Add(1)
		pe.pr.stats.bytesReceived.Add(int64(frameHdrLen + len(raw)))
		pe.wire.framesReceived.Add(1)
		pe.wire.bytesReceived.Add(int64(frameHdrLen + len(raw)))
		// Stream chunks and telemetry frames land in their own
		// mailboxes: their consumers (the windowed exchange's receiver
		// goroutines, rank 0's telemetry drain) run concurrently with
		// ordinary receives (halo, parity) on the same link, and a
		// shared FIFO would let any consumer pop another's frame.
		switch {
		case isStreamTag(tag):
			pe.sbox.put(packet{tag: tag, raw: raw})
		case tag == telemetry.TagStat:
			pe.tbox.put(packet{tag: tag, raw: raw})
		default:
			pe.box.put(packet{tag: tag, raw: raw})
		}
	}
}

// close shuts the link down gracefully: stop accepting frames, give the
// writer a bounded window to flush, then close the socket. The wait is
// bounded by twice the I/O deadline (when one is set) so a hung link can
// never wedge Close itself.
func (pe *peer) close() {
	pe.closeOnce.Do(func() {
		pe.outOnce.Do(func() { close(pe.out) })
		if d := pe.timeout(); d > 0 {
			t := time.NewTimer(2 * d)
			select {
			case <-pe.drained:
				t.Stop()
			case <-t.C:
			}
			_ = pe.conn.Close() // unblocks a stuck writer
			<-pe.drained
		} else {
			<-pe.drained
			_ = pe.conn.Close()
		}
	})
}

// shutdown flushes the send queue and half-closes the write direction:
// the peer sees FIN strictly after every queued frame, and this side
// keeps reading. Falls back to a full close on transports without
// CloseWrite. The drain wait is bounded like close()'s.
func (pe *peer) shutdown() {
	pe.outOnce.Do(func() { close(pe.out) })
	if d := pe.timeout(); d > 0 {
		t := time.NewTimer(2 * d)
		select {
		case <-pe.drained:
			t.Stop()
		case <-t.C:
		}
	} else {
		<-pe.drained
	}
	if cw, ok := pe.conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	} else {
		_ = pe.conn.Close()
	}
}

// netMailbox is an unbounded FIFO of received packets with a typed death
// cause and deadline-bounded waits.
type netMailbox struct {
	mu     sync.Mutex
	queue  []packet
	head   int // next packet to pop; the queue rewinds when it drains
	dead   bool
	cause  error
	notify chan struct{} // 1-buffered wake-up for the single consumer
}

func newNetMailbox() *netMailbox {
	return &netMailbox{notify: make(chan struct{}, 1)}
}

func (m *netMailbox) put(p packet) {
	m.mu.Lock()
	m.queue = append(m.queue, p)
	m.mu.Unlock()
	m.wake()
}

// kill marks the mailbox dead with a cause; queued packets stay
// readable, matching the wire (they arrived intact before the fault).
func (m *netMailbox) kill(cause error) {
	m.mu.Lock()
	if !m.dead {
		m.dead = true
		m.cause = cause
	}
	m.mu.Unlock()
	m.wake()
}

func (m *netMailbox) wake() {
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// get pops the next packet, waiting at most timeout (0 = forever). It
// returns the link's death cause once the queue is empty and the link is
// dead, or ErrDeadline if nothing arrives in time.
func (m *netMailbox) get(timeout time.Duration) (packet, error) {
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
				m.queue, m.head = m.queue[:0], 0
			}
			m.mu.Unlock()
			return p, nil
		}
		if m.dead {
			cause := m.cause
			m.mu.Unlock()
			if cause == nil {
				cause = ErrPeerClosed
			}
			return packet{}, cause
		}
		m.mu.Unlock()
		select {
		case <-m.notify:
		case <-expire:
			return packet{}, fmt.Errorf("%w: no frame within %v", ErrDeadline, timeout)
		}
	}
}
