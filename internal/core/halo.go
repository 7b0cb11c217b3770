package core

import (
	"soifft/internal/exch"
	"soifft/internal/trace"
)

// This file is the halo exchange — the other communication phase. Each
// rank posts its neighbour prefix(es) up front, and a background receiver
// assembles the arriving ones, so the rows that need no halo convolve
// while it is in flight and the first boundary row waits only for what
// is still on the wire. A streamed run chunks each prefix on the
// exch.HaloSizes schedule, so even a long halo lands piece by piece
// behind the interior tiles; otherwise each prefix travels as one frame.
//
// The chunks ride the transports' ordinary (positive-tag) mailboxes on
// tags exch.HaloTag(d, i). During the produce loop they are the only
// ordinary-tag traffic on their links, so the FIFO pop order matches the
// send order on both transports, and the coded exchange's parity frames
// — sent after the produce loop — queue strictly behind the last chunk.

// haloStream is the receive side of one halo exchange.
type haloStream struct {
	done chan struct{}
	err  error // written before done closes
}

// wait blocks until every halo chunk landed (or the first failure).
func (hs *haloStream) wait() error {
	<-hs.done
	return hs.err
}

// startHalo posts this rank's prefix of localIn to the preceding rank(s)
// and starts the background receiver assembling the next ranks'
// prefixes into dst, len(dst) elements in all (the halo may span
// several neighbour blocks in tiny shapes). split chunks each prefix on
// the exch.HaloSizes schedule. Readers of dst synchronize through
// wait's channel. A send error (dead neighbour link) is returned
// immediately — the halo is not erasure-protected, so there is nothing
// to route around.
func startHalo(c Comm, localIn, dst []complex128, split bool, tr *trace.Tracer, tid trace.ID) (*haloStream, error) {
	rank, r, nLocal, halo := c.Rank(), c.Size(), len(localIn), len(dst)
	sizes := func(d int) []int {
		need := min(halo-(d-1)*nLocal, nLocal)
		if split {
			return exch.HaloSizes(need)
		}
		return []int{need}
	}
	for d := 1; (d-1)*nLocal < halo; d++ {
		off := 0
		for i, sz := range sizes(d) {
			if err := c.Send((rank-d+r*d)%r, exch.HaloTag(d, i), localIn[off:off+sz]); err != nil {
				return nil, err
			}
			tr.ChunkInstant(tid, rank, "halo_chunk_send", i)
			off += sz
		}
	}
	hs := &haloStream{done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		for d := 1; (d-1)*nLocal < halo; d++ {
			off := (d - 1) * nLocal
			for i, sz := range sizes(d) {
				// A chunk the wrong size fails RecvInto with the source's typed fault.
				if err := c.RecvInto(dst[off:off+sz], (rank+d)%r, exch.HaloTag(d, i)); err != nil {
					hs.err = err
					return
				}
				tr.ChunkInstant(tid, rank, "halo_chunk_recv", i)
				off += sz
			}
		}
	}()
	return hs, nil
}
