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
	links := make([]*sockLink, 0, n.size-1)
	join := func(r int, conn net.Conn) {
		if n.wrap != nil {
			conn = n.wrap(r, conn)
		}
		links = append(links, newSockLink(conn, r, p))
	}
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
		join(r, conn)
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
		join(r, conn)
	}
	_ = n.ln.Close()
	for _, l := range links {
		go l.readLoop()
		go l.writeLoop()
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
		conn, err := net.DialTimeout("tcp", addr, min(remaining, 2*time.Second))
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

// frameTag reads the tag from a frame header.
func frameTag(hdr []byte) int { return int(int64(binary.LittleEndian.Uint64(hdr[:8]))) }

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

// sockLink is a link over one framed socket: a writer goroutine drains
// the send queue, a reader validates frames into the peer's mailboxes.
type sockLink struct {
	pe   *peer
	conn net.Conn
	out  chan outFrame
	// sendBufs and recvBufs are the reusable wire buffers of outbound
	// frames and inbound payloads: after the first exchange of a given
	// shape the link moves frames without allocating. Separate lists, so
	// neither direction takes the buffer the other was sized with.
	sendBufs, recvBufs exch.FreeList[byte]
	// echo hands a received ping's timestamp to the writer for
	// reflection. It bypasses out, which close/shutdown may have closed
	// while reads are still draining.
	echo chan int64

	outOnce   sync.Once // closes out exactly once (close and shutdown share it)
	closeOnce sync.Once
	drained   chan struct{} // closed when writeLoop has exited
}

// newSockLink links pr to rank over conn; the caller starts its loops.
func newSockLink(conn net.Conn, rank int, pr *Proc) *sockLink {
	pe := newPeer(rank, pr)
	l := &sockLink{
		pe:      pe,
		conn:    conn,
		out:     make(chan outFrame, 4096),
		echo:    make(chan int64, 1),
		drained: make(chan struct{}),
	}
	pe.link = l
	pr.peers[rank] = pe
	return l
}

func (l *sockLink) timeout() time.Duration { return l.pe.pr.IOTimeout() }

func (l *sockLink) cut(error) { _ = l.conn.Close() }

// encode lays out one data frame in a pooled buffer, which the writer
// returns once the frame is written. The payload is copied here, so the
// caller's slice is its own again on return.
func (l *sockLink) encode(tag int, data []complex128) []byte {
	return putFrame(l.sendBufs.Get(frameHdrLen+16*len(data)), tag, data)
}

func (l *sockLink) send(tag int, data []complex128) error {
	return l.sendFrame(l.encode(tag, data), nil)
}

// sendChunk encodes a stream chunk into its own frame, after taking a
// slot of the destination's window: backpressure against the link's real
// flush progress. A dying link wakes the wait with its typed cause. When
// the window is full the blocked time is booked as credit-stall — per
// destination on the link and in aggregate on the recorder — the
// producer-outran-this-link signal the explainer attributes excess
// exchange time to. The writer frees the slot once the frame is flushed.
func (l *sockLink) sendChunk(s *stream, tag int, wire []complex128) error {
	pe := l.pe
	cr := s.credit[pe.rank]
	if cr == nil {
		cr = make(chan struct{}, max(s.o.Window, 1))
		s.credit[pe.rank] = cr
	}
	select {
	case cr <- struct{}{}:
	default:
		start := time.Now()
		select {
		case cr <- struct{}{}:
			d := time.Since(start)
			pe.wire.creditStallNs.Add(int64(d))
			s.p.rec.Load().AddCreditStall(d)
		case <-pe.dead:
			return pe.failErr
		}
	}
	return l.sendFrame(l.encode(tag, wire), func() { <-cr })
}

// payload decodes a received frame's payload into dst (a fresh slice
// when dst is nil) and returns the wire buffer to the pool.
func (l *sockLink) payload(dst []complex128, pkt packet) ([]complex128, error) {
	defer l.recvBufs.Put(pkt.raw)
	n := len(pkt.raw) / 16
	if dst == nil {
		dst = make([]complex128, n)
	} else if len(dst) != n {
		return nil, fmt.Errorf("expected %d elements, got %d", len(dst), n)
	}
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(pkt.raw[i*16:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(pkt.raw[i*16+8:]))
		dst[i] = complex(re, im)
	}
	return dst, nil
}

// sendFrame queues a frame for the writer, failing fast if the link is
// dead (a failed writeLoop no longer drains out at full rate, so
// blocking on a dead peer's queue would hang forever once 4096 frames
// pile up). The optional flush callback is run by the writer once the
// frame's bytes have all reached the socket; if the link dies before the
// frame flushes, the callback is dropped along with the frame.
func (l *sockLink) sendFrame(frame []byte, flushed func()) error {
	if err := l.pe.alive(); err != nil {
		return err
	}
	select {
	case l.out <- outFrame{buf: frame, flushed: flushed}:
		return nil
	case <-l.pe.dead:
		return l.pe.failErr
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
func (l *sockLink) writeFrame(frame []byte) error {
	for off := 0; off < len(frame); off += ioChunk {
		end := min(off+ioChunk, len(frame))
		if d := l.timeout(); d > 0 {
			_ = l.conn.SetWriteDeadline(time.Now().Add(d))
		}
		if _, err := l.conn.Write(frame[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// writeLoop drains the send queue; with a deadline armed it inserts
// heartbeat frames whenever the link has been idle for a third of it.
// On a write error it marks the peer dead and keeps draining the queue
// (discarding) so senders blocked on a full queue are never stranded.
func (l *sockLink) writeLoop() {
	defer close(l.drained)
	pe := l.pe
	for {
		// Without a deadline the timer only polls, so a later
		// SetIOTimeout still takes effect on an idle link (no heartbeats
		// are sent meanwhile, but pings from a deadline-armed peer are
		// still echoed).
		d, wait := l.timeout(), 500*time.Millisecond
		if d > 0 {
			wait = d / 3
		}
		t := time.NewTimer(wait)
		var fr outFrame
		var ok bool
		select {
		case fr, ok = <-l.out:
			t.Stop()
		case ts := <-l.echo:
			t.Stop()
			fr, ok = outFrame{buf: heartbeatFrame(ts, true), control: true}, true
		case <-t.C:
			if d <= 0 {
				continue
			}
			fr, ok = outFrame{buf: heartbeatFrame(nowNs(), false), control: true}, true
		}
		if !ok {
			return
		}
		start := time.Now()
		if err := l.writeFrame(fr.buf); err != nil {
			pe.fail(classify(err, l.timeout()))
			for range l.out { // drain until close() closes the channel
			}
			return
		}
		if fr.control {
			pe.pr.stats.heartbeatsSent.Add(1)
		} else {
			pe.band(frameTag(fr.buf)).out.add(len(fr.buf))
			pe.wire.flushNs.Add(int64(time.Since(start)))
			l.sendBufs.Put(fr.buf)
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
func (l *sockLink) handleHeartbeat(raw []byte) {
	if len(raw) < 16 {
		return
	}
	ts := int64(binary.LittleEndian.Uint64(raw[:8]))
	if binary.LittleEndian.Uint64(raw[8:16]) == 0 { // imag 0: ping
		select {
		case l.echo <- ts:
		default: // an echo is already queued; this ping's sample is lost
		}
		return
	}
	if rtt := nowNs() - ts; rtt > 0 {
		l.pe.wire.rttNs.Store(rtt)
	}
}

// readFull fills buf in deadline-refreshed chunks.
func (l *sockLink) readFull(buf []byte) error {
	for len(buf) > 0 {
		n := min(len(buf), ioChunk)
		if d := l.timeout(); d > 0 {
			_ = l.conn.SetReadDeadline(time.Now().Add(d))
		}
		if _, err := io.ReadFull(l.conn, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
	}
	return nil
}

// readLoop validates and delivers inbound frames, killing the link with
// a typed cause on the first anomaly.
func (l *sockLink) readLoop() {
	pe := l.pe
	hdr := make([]byte, frameHdrLen)
	for {
		if err := l.readFull(hdr); err != nil {
			pe.fail(classify(err, l.timeout()))
			return
		}
		if m := binary.LittleEndian.Uint32(hdr[20:24]); m != frameMagic {
			pe.fail(fmt.Errorf("%w: magic %#x, want %#x", ErrBadFrame, m, frameMagic))
			return
		}
		tag := frameTag(hdr)
		count := binary.LittleEndian.Uint64(hdr[8:16])
		if count > uint64(MaxFrameElems) {
			pe.fail(fmt.Errorf("%w: header claims %d elements (limit %d)",
				ErrFrameTooLarge, count, MaxFrameElems))
			return
		}
		raw := l.recvBufs.Get(int(count) * 16)
		if err := l.readFull(raw); err != nil {
			pe.fail(classify(err, l.timeout()))
			return
		}
		crc := crc32.Checksum(hdr[:16], castagnoli)
		crc = crc32.Update(crc, castagnoli, raw)
		if want := binary.LittleEndian.Uint32(hdr[16:20]); crc != want {
			pe.fail(fmt.Errorf("%w: computed %#x, frame says %#x", ErrChecksum, crc, want))
			return
		}
		if tag == tagHeartbeat {
			l.handleHeartbeat(raw)
			l.recvBufs.Put(raw)
			continue
		}
		pe.band(tag).in.add(frameHdrLen + len(raw))
		pe.boxFor(tag).put(packet{tag: tag, raw: raw})
	}
}

// flush stops the send queue and waits for the writer to drain it, at
// most twice the I/O deadline when one is set, so a hung link can never
// wedge close or shutdown.
func (l *sockLink) flush() {
	l.outOnce.Do(func() { close(l.out) })
	if d := l.timeout(); d > 0 {
		t := time.NewTimer(2 * d)
		defer t.Stop()
		select {
		case <-l.drained:
		case <-t.C:
		}
	} else {
		<-l.drained
	}
}

// close shuts the link down gracefully: stop accepting frames, give the
// writer a bounded window to flush, then close the socket.
func (l *sockLink) close() {
	l.closeOnce.Do(func() {
		l.flush()
		_ = l.conn.Close() // unblocks a stuck writer
		<-l.drained
	})
}

// shutdown flushes the send queue and half-closes the write direction:
// the peer sees FIN strictly after every queued frame, and this side
// keeps reading. Falls back to a full close on transports without
// CloseWrite.
func (l *sockLink) shutdown() {
	l.flush()
	if cw, ok := l.conn.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	} else {
		_ = l.conn.Close()
	}
}
