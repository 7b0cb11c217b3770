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

// Send delivers data to rank `to` with a matching tag, counting it at the
// wire level. The payload is copied into a recycled buffer, so Send never
// blocks; it fails once the world has aborted, with *AbortError, and for a
// rank outside the world, with a *CollectiveError.
func (c *Comm) Send(to, tag int, data []complex128) error {
	select {
	case <-c.world.dead:
		return &AbortError{Rank: c.rank}
	default:
	}
	if err := c.checkRank("send", to); err != nil {
		return err
	}
	c.world.stats.p2pMessages.Add(1)
	c.world.stats.p2pBytes.Add(int64(len(data)) * 16)
	b := sendCopies.Get(len(data))
	copy(b, data)
	c.world.box(c.rank, to, tag).put(packet{tag: tag, data: b})
	return nil
}

// RecvC blocks until the next message from rank `from` arrives and
// returns its payload, the caller's to keep, or *AbortError once the
// world has aborted. A message with another tag is a *CollectiveError
// wrapping *TagMismatchError.
func (c *Comm) RecvC(from, tag int) ([]complex128, error) {
	p, err := c.get("recv", from, tag)
	return p.data, err
}

// RecvInto is RecvC into the caller's buffer: the queued payload is
// copied straight into dst, whose length it must match (a typed
// *CollectiveError otherwise), and its buffer goes back to Send.
func (c *Comm) RecvInto(dst []complex128, from, tag int) error {
	return c.recvInto("recv_into", dst, from, tag)
}

func (c *Comm) recvInto(op string, dst []complex128, from, tag int) error {
	p, err := c.get(op, from, tag)
	if err != nil {
		return err
	}
	err = c.fill(op, dst, p.data, from)
	sendCopies.Put(p.data)
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

// checkRank rejects a peer outside the world as a *CollectiveError of op.
func (c *Comm) checkRank(op string, peer int) error {
	if peer < 0 || peer >= c.world.size {
		return &CollectiveError{Op: op, Rank: c.rank, Err: fmt.Errorf("invalid rank %d (size %d)", peer, c.world.size)}
	}
	return nil
}

// get pops the next packet from rank `from`: *AbortError once the world
// has aborted and the queue is drained, and for a message with another
// tag — the SPMD program's sends and receives are mis-sequenced — a
// *CollectiveError of op wrapping *TagMismatchError (a chunk lent under
// that tag is handed back, so its lender does not wait on it).
func (c *Comm) get(op string, from, tag int) (packet, error) {
	if err := c.checkRank(op, from); err != nil {
		return packet{}, err
	}
	p, ok := c.world.box(from, c.rank, tag).get()
	if !ok {
		return packet{}, &AbortError{Rank: c.rank}
	}
	if p.tag != tag {
		if p.loan != nil && p.loan.take() {
			p.loan.back <- struct{}{}
		}
		return packet{}, &CollectiveError{Op: op, Rank: c.rank, Err: &TagMismatchError{Want: tag, Got: p.tag}}
	}
	return p, nil
}
