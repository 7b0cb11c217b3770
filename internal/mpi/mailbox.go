package mpi

import "sync"

// packet is one in-flight message: a Send's buffered copy, or a chunk
// the exchange stream lends by reference.
type packet struct {
	tag  int
	data []complex128
	loan *loan
}

// mailbox is an unbounded FIFO queue of packets for one (sender,
// receiver) pair. Unboundedness is essential: it gives MPI's buffered
// standard-send semantics, so an SPMD exchange where every rank posts all
// sends before any receive cannot deadlock.
type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []packet
	head  int  // next packet to pop; the queue rewinds when it drains
	dead  bool // set when the world aborts; wakes blocked receivers
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

func (m *mailbox) put(p packet) {
	m.mu.Lock()
	m.queue = append(m.queue, p)
	m.mu.Unlock()
	m.cond.Signal()
}

// get blocks for the next packet; ok is false once the world aborted and
// the queue is drained.
func (m *mailbox) get() (p packet, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == len(m.queue) && !m.dead {
		m.cond.Wait()
	}
	if m.head == len(m.queue) {
		return packet{}, false
	}
	p = m.queue[m.head]
	m.queue[m.head] = packet{} // drop the payload reference
	if m.head++; m.head == len(m.queue) {
		// Drained: rewind so put reuses the backing array instead of
		// growing a fresh one behind an ever-advancing window.
		m.queue, m.head = m.queue[:0], 0
	}
	return p, true
}

// kill wakes all blocked receivers; subsequent gets fail once drained.
func (m *mailbox) kill() {
	m.mu.Lock()
	m.dead = true
	m.mu.Unlock()
	m.cond.Broadcast()
}
