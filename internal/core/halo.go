package core

import "soifft/internal/exch"

// This file streams the halo exchange — the other communication phase.
// The blocking form posts the neighbour prefix(es) up front and then
// stalls the first boundary tile on one monolithic receive per depth. The
// streamed form chunks each prefix through the exch.HaloSizes schedule
// and assembles arriving chunks in a background receiver, so by the time
// the producer's boundary tile asks, most (or all) of the halo has
// already landed behind the interior tiles' convolution; the boundary
// wait is only the residual chunks in flight.
//
// The chunks ride the transports' ordinary (positive-tag) mailboxes on
// tags exch.HaloTag(d, i). During the produce loop they are the only
// ordinary-tag traffic on their links, so the FIFO pop order matches the
// send order on both transports, and the coded exchange's parity frames
// — sent after the produce loop — queue strictly behind the last chunk.

// haloStream is the receive side of one streamed halo exchange.
type haloStream struct {
	done chan struct{}
	err  error // written before done closes
}

// wait blocks until every halo chunk landed (or the first failure).
func (hs *haloStream) wait() error {
	<-hs.done
	return hs.err
}

// startHaloStream posts this rank's prefix chunks to the preceding
// rank(s) and starts the background receiver assembling the neighbour
// prefix(es) into dst (the workspace's halo buffer).
// Only boundary rows read dst, and they synchronize through wait's
// channel, so the receiver and the interior tiles proceed concurrently.
// A send error (dead neighbour link) is returned immediately — the
// halo is not erasure-protected, so there is nothing to route around.
func (e *distExec) startHaloStream(localIn, dst []complex128) (*haloStream, error) {
	rank, r := e.rank, e.r
	halo := e.pl.HaloLen()
	for d := 1; (d-1)*e.nLocal < halo; d++ {
		need := min(halo-(d-1)*e.nLocal, e.nLocal)
		dst := (rank - d + r*d) % r
		off := 0
		for i, sz := range exch.HaloSizes(need) {
			if err := e.c.Send(dst, exch.HaloTag(d, i), localIn[off:off+sz]); err != nil {
				return nil, err
			}
			e.tr.ChunkInstant(e.tid, rank, "halo_chunk_send", i)
			off += sz
		}
	}
	hs := &haloStream{done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		for d := 1; (d-1)*e.nLocal < halo; d++ {
			need := min(halo-(d-1)*e.nLocal, e.nLocal)
			src := (rank + d) % r
			off := (d - 1) * e.nLocal
			for i, sz := range exch.HaloSizes(need) {
				// A chunk the wrong size fails RecvInto with the source's typed fault.
				if err := e.c.RecvInto(dst[off:off+sz], src, exch.HaloTag(d, i)); err != nil {
					hs.err = err
					return
				}
				e.tr.ChunkInstant(e.tid, rank, "halo_chunk_recv", i)
				off += sz
			}
		}
	}()
	return hs, nil
}
