package mpi

import (
	"fmt"

	"soifft/internal/exch"
	"soifft/internal/telemetry"
)

// Comm is one rank's handle on the world. All methods must be called only
// from that rank's goroutine.
type Comm struct {
	world *World
	rank  int
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Send delivers data to rank `to` with a matching tag. The payload is
// copied into a recycled buffer, so Send never blocks; it fails only once
// the world has aborted, with *AbortError.
func (c *Comm) Send(to, tag int, data []complex128) error {
	select {
	case <-c.world.dead:
		return &AbortError{Rank: c.rank}
	default:
	}
	c.send(to, tag, data)
	return nil
}

// RecvC blocks until the next message from rank `from` arrives and
// returns its payload, the caller's to keep, or *AbortError once the
// world has aborted. A message with another tag is a *CollectiveError
// wrapping *TagMismatchError.
func (c *Comm) RecvC(from, tag int) ([]complex128, error) {
	data, err := c.get("recv", from, tag)
	if err != nil {
		return nil, err
	}
	return data.([]complex128), nil
}

// RecvInto is RecvC into the caller's buffer: the queued payload is
// copied straight into dst, whose length it must match (a typed
// *CollectiveError otherwise), and its buffer goes back to Send.
func (c *Comm) RecvInto(dst []complex128, from, tag int) error {
	return c.recvInto("recv_into", dst, from, tag)
}

func (c *Comm) recvInto(op string, dst []complex128, from, tag int) error {
	data, err := c.get(op, from, tag)
	if err != nil {
		return err
	}
	payload := data.([]complex128)
	err = c.fill(op, dst, payload, from)
	sendCopies.Put(payload)
	return err
}

// fill copies a received payload into dst, whose length it must match.
func (c *Comm) fill(op string, dst, data []complex128, from int) error {
	if len(data) != len(dst) {
		return &CollectiveError{Op: op, Rank: c.rank, Err: fmt.Errorf(
			"%w: expected %d elements from rank %d, got %d", ErrCountMismatch, len(dst), from, len(data))}
	}
	copy(dst, data)
	return nil
}

// Sendrecv exchanges payloads with two (possibly distinct) partners in a
// deadlock-free way and returns the received payload.
func (c *Comm) Sendrecv(to, sendTag int, data any, from, recvTag int) any {
	c.world.stats.sendrecvs.Add(1)
	c.send(to, sendTag, data)
	return c.recv(from, recvTag)
}

// box selects the FIFO for one (src, dst, tag) triple: the streamed
// exchange's tag band and the telemetry control tag each get their own
// per-pair mailbox, because their consumers (stream receiver
// goroutines, rank 0's telemetry drain) run concurrently with ordinary
// receives (halo, parity) on the same pair and a shared FIFO would let
// any consumer pop another's message.
func (w *World) box(src, dst, tag int) *mailbox {
	switch {
	case tag <= exch.TagBase:
		return w.sboxes[src*w.size+dst]
	case tag == telemetry.TagStat:
		return w.tboxes[src*w.size+dst]
	default:
		return w.boxes[src*w.size+dst]
	}
}

// send counts every message at the wire level (collectives included) and
// enqueues a copy of the payload.
func (c *Comm) send(to, tag int, data any) {
	if to < 0 || to >= c.world.size {
		panic(fmt.Sprintf("mpi: send to invalid rank %d (size %d)", to, c.world.size))
	}
	c.world.stats.p2pMessages.Add(1)
	c.world.stats.p2pBytes.Add(sizeOf(data))
	c.world.box(c.rank, to, tag).put(packet{tag: tag, data: copyPayload(data)})
}

// get pops the next payload from rank `from`: *AbortError once the world
// has aborted and the queue is drained, and for a message with another
// tag — the SPMD program's sends and receives are mis-sequenced — a
// *CollectiveError of op wrapping *TagMismatchError (a chunk lent under
// that tag is handed back, so its lender does not wait on it).
func (c *Comm) get(op string, from, tag int) (any, error) {
	if from < 0 || from >= c.world.size {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d (size %d)", from, c.world.size))
	}
	p, ok := c.world.box(from, c.rank, tag).get()
	if !ok {
		return nil, &AbortError{Rank: c.rank}
	}
	if p.tag != tag {
		if l, ok := p.data.(*loan); ok && l.take() {
			l.back <- struct{}{}
		}
		return nil, &CollectiveError{Op: op, Rank: c.rank, Err: &TagMismatchError{Want: tag, Got: p.tag}}
	}
	return p.data, nil
}

// recv is get for the experiment-only collectives, which leave an abort
// to unwind the rank through World.Run.
func (c *Comm) recv(from, tag int) any {
	data, err := c.get("recv", from, tag)
	if err != nil {
		panic(err)
	}
	return data
}
