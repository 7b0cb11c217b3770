// Package exch defines the chunked, windowed, asynchronous all-to-all
// stream every exchange of the distributed SOI driver runs on — one
// chunk per destination for the blocking exchange, per-tile chunks to
// hide wire time behind convolution. It is a leaf package: the
// transport (internal/mpinet, over either of its links) implements the
// Stream surface against these types, and internal/core consumes it, so
// the two agree on one schedule and one event shape (and one FreeList)
// without import cycles.
//
// Protocol: all ranks derive the same chunk schedule (Options.Sizes, an
// element count per chunk index) and each rank streams chunk idx to
// destination dst as soon as the data exists, tagged Tag(idx). Per link,
// chunks travel strictly in index order, so the receive side needs no
// reordering. A bounded per-destination window (Options.Window) caps how
// many chunks may be queued-but-unflushed per link; Send blocks on the
// window (backpressure) rather than buffering without limit. Each chunk
// is delivered — or fails — independently: a dead or hung source yields
// one Chunk with Err set (typed, deadline-bounded by the transport) and
// ends that source's stream without disturbing the others.
package exch

import (
	"errors"
	"fmt"
	"sync"
)

// The halo exchange streams through the same chunk-schedule idea as the
// all-to-all, but over the transports' ordinary (positive-tag) mailboxes:
// on a streamed run the neighbour prefix to depth d is split into
// HaloSizes chunks, each sent with HaloTag(d, i), and the boundary tiles
// wait only for the residual chunks still in flight.
// Per link the chunks are the only ordinary-tag traffic during the
// produce loop, so both transports' FIFO pop order matches the send
// order, and any coded-exchange parity frames queue strictly behind the
// last chunk.

// MaxHaloChunks caps the chunk schedule per neighbour link.
const MaxHaloChunks = 8

// minHaloChunkElems floors the chunk size at 16 Ki complex elements
// (one 256 KiB frame, the transports' I/O chunk), so a modest halo
// travels as a single frame — its per-frame costs (headers, shaper
// pacing, syscalls) are paid once — and only a halo big enough to be
// worth overlapping splits.
const minHaloChunkElems = 16384

// HaloSizes splits a halo prefix of total elements into the chunk
// schedule — near-equal chunks, at most MaxHaloChunks, none smaller
// than minHaloChunkElems (except the sole chunk of a tiny halo). Both
// ends derive it independently from total alone.
func HaloSizes(total int) []int {
	if total <= 0 {
		return nil
	}
	n := (total + minHaloChunkElems - 1) / minHaloChunkElems
	if n > MaxHaloChunks {
		n = MaxHaloChunks
	}
	sizes := make([]int, n)
	lo := 0
	for i := range sizes {
		hi := (i + 1) * total / n
		sizes[i] = hi - lo
		lo = hi
	}
	return sizes
}

// ErrOverlap is the cause a stream that lends its chunks (the in-process
// one) gives a chunk that shares memory with its own Options.Recv.
var ErrOverlap = errors.New("exch: all-to-all recv overlaps send")

// Overlap reports whether a and b share memory. Slices of one array share
// its last element, so equal capacity ends identify the array and the
// capacities place each slice in it (a capacity trimmed by a full slice
// expression escapes the check).
func Overlap(a, b []complex128) bool {
	if len(a) == 0 || len(b) == 0 || &a[:cap(a)][cap(a)-1] != &b[:cap(b)][cap(b)-1] {
		return false
	}
	return cap(a)-len(a) < cap(b) && cap(b)-len(b) < cap(a)
}

// Chunk is one delivered piece of a streamed all-to-all: chunk Index of
// source rank Src's contribution to this rank, or — when Err is non-nil
// — the typed failure that ended Src's stream (Data is nil then, and no
// further chunks from Src will arrive). A remote chunk's Data is its
// Options.Recv slot; a self chunk's is the slice this rank sent.
type Chunk struct {
	Src   int
	Index int
	Data  []complex128
	Err   error
}

// Codec transforms chunk payloads on the wire — the seam for compressed
// frames (the reference implementation's variable-length coding of the
// oversampled exchange). Encode maps a payload to its wire form; Decode
// inverts it given the expected decoded element count. A nil Codec means
// identity. Self-deliveries never pass through the codec (they never
// touch the wire). Implementations must round-trip bit-exactly for the
// driver's bit-identity guarantees to hold.
type Codec interface {
	EncodeChunk(src []complex128) []complex128
	DecodeChunk(wire []complex128, n int) ([]complex128, error)
}

// Options is the shared schedule of one streamed all-to-all. Every rank
// must start its stream with identical Sizes (and compatible Codec);
// Window and Recv are local and may differ per rank.
type Options struct {
	// Sizes holds the element count of each chunk index; the same
	// schedule applies to every (source, destination) pair.
	Sizes []int
	// Recv (required) receives the remote chunks in rank order, Σ Sizes
	// elements per source, chunk idx at Σ Sizes[:idx] within them; at
	// (Size()−1)·Σ Sizes it leaves out the receiver's own (see Slot).
	// Chunks are decoded straight into it; a frame whose size disagrees
	// with its slot fails its source. Self chunks are not copied here.
	Recv []complex128
	// Window caps the queued-but-unflushed chunks per destination link;
	// values below 1 are treated as 1. The in-process runtime lends
	// every chunk at once, so the window never blocks there.
	Window int
	// Codec optionally transforms payloads on the wire; nil = identity.
	// Decoded chunks are copied into their slot.
	Codec Codec
}

// Slot returns the span of Recv that chunk idx from src lands in at rank self of size ranks.
func (o Options) Slot(self, size, src, idx int) []complex128 {
	total, off := 0, 0
	for i, n := range o.Sizes {
		if i < idx {
			off += n
		}
		total += n
	}
	if src > self && len(o.Recv) < size*total { // no slot for self
		src--
	}
	return o.Recv[src*total+off:][:o.Sizes[idx]]
}

// DecodeInto decodes a wire chunk with c into slot, whose length the
// decoded chunk must match.
func DecodeInto(c Codec, slot, wire []complex128) error {
	data, err := c.DecodeChunk(wire, len(slot))
	if err != nil {
		return err
	}
	if len(data) != len(slot) {
		return fmt.Errorf("exch: codec decoded %d elements, want %d", len(data), len(slot))
	}
	copy(slot, data)
	return nil
}

// Stream is a handle on one in-flight chunked all-to-all. One goroutine
// may call Send (the producer) while one other calls Next (the
// consumer); neither method is safe for further concurrency.
type Stream interface {
	// Send queues chunk idx for destination dst (dst may be this rank:
	// self-chunks are delivered through Next like any other, keeping the
	// consumer uniform). It blocks while dst's in-flight window is full
	// and returns the transport's typed error if the link is dead; a
	// non-nil error means the chunk was not delivered.
	Send(dst, idx int, data []complex128) error
	// Next blocks for the next chunk from any source, in arrival order.
	// ok=false means every source has either delivered all its chunks or
	// failed (each failure was yielded once as a Chunk with Err set).
	Next() (Chunk, bool)
	// Close ends the stream: the consumer's next Next returns ok=false
	// even if chunk slots are still outstanding (a producer that failed
	// mid-schedule can never fill its own self-delivery slots, so the
	// consumer must not wait for them), and the stream settles its loans.
	// A transport that lends chunks by reference (the in-process one)
	// waits for the copies its peers take, so after Close no peer reads
	// the data sent; it revokes the loans nobody took once the world
	// aborts or, with an I/O deadline, once none was taken for that
	// long. A transport that copies at Send (the mesh) never waits. The producer calls Close after its last Send; it is
	// idempotent.
	Close()
}

// Tracker is the consumer-side bookkeeping shared by Stream
// implementations: a buffered event channel sized so producers can never
// block (even on an abandoned stream), and the completion arithmetic for
// Next. Deliver may be called from any goroutine; Next from exactly one.
type Tracker struct {
	events    chan Chunk
	chunks    int   // schedule length per source
	remaining int   // chunk slots still outstanding
	got       []int // delivered count per source
	aborted   chan struct{}
	abortOnce sync.Once
}

// NewTracker sizes the bookkeeping for size ranks and a chunks-long
// schedule. The channel holds the worst case — every chunk plus one
// failure event per source — so Deliver is always non-blocking.
func NewTracker(size, chunks int) *Tracker {
	return &Tracker{
		events:    make(chan Chunk, size*(chunks+1)),
		chunks:    chunks,
		remaining: size * chunks,
		got:       make([]int, size),
		aborted:   make(chan struct{}),
	}
}

// Deliver hands one chunk (or one per-source failure) to the consumer.
func (t *Tracker) Deliver(c Chunk) { t.events <- c }

// Abort ends the stream from the producer side: Next stops waiting and
// reports completion even with slots outstanding. This is how a
// producer that failed mid-schedule (and so can never fill its own
// self-delivery slots) releases a consumer blocked on them. Idempotent
// and safe concurrently with Next.
func (t *Tracker) Abort() { t.abortOnce.Do(func() { close(t.aborted) }) }

// Next implements Stream.Next over the delivered events.
func (t *Tracker) Next() (Chunk, bool) {
	if t.remaining <= 0 {
		return Chunk{}, false
	}
	var c Chunk
	select {
	case c = <-t.events:
	case <-t.aborted:
		return Chunk{}, false
	}
	if c.Err != nil {
		// The source's stream is over: retire its undelivered slots.
		t.remaining -= t.chunks - t.got[c.Src]
		t.got[c.Src] = t.chunks
		return c, true
	}
	t.got[c.Src]++
	t.remaining--
	return c, true
}

// Streamer is the part of a transport the one-chunk all-to-all runs on.
type Streamer interface {
	Rank() int
	Size() int
	StartAlltoallv(o Options) Stream
}

// Alltoall is the equal-counts personalized exchange — the paper's
// "global transpose" primitive — as a one-chunk stream: chunk elements of
// send go to each rank, and recv receives, in rank order, the chunk each
// rank sent to this one. send and recv hold Size()·chunk elements and
// must not overlap. It returns the first failure, once the stream is
// settled, so no peer reads send afterwards.
func Alltoall(c Streamer, recv, send []complex128, chunk int) error {
	rank, size := c.Rank(), c.Size()
	st := c.StartAlltoallv(Options{Sizes: []int{chunk}, Recv: recv})
	defer st.Close()
	copy(recv[rank*chunk:(rank+1)*chunk], send[rank*chunk:(rank+1)*chunk])
	for off := 1; off <= size; off++ {
		dst := (rank + off) % size
		if err := st.Send(dst, 0, send[dst*chunk:(dst+1)*chunk]); err != nil {
			return err
		}
	}
	var err error
	for {
		ch, ok := st.Next()
		if !ok {
			return err
		}
		if err == nil {
			err = ch.Err
		}
	}
}
