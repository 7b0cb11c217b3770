package mpi

import "soifft/internal/exch"

// StartAlltoallv begins a chunked, asynchronous all-to-all (core.Comm's
// streamed exchange) over the in-process runtime. Sends are buffered and
// complete immediately, so the in-flight window never blocks here; the
// value of the in-process stream is that the same streamed driver code
// runs under the world's traffic counters (the collective op counted
// once, payload bytes at each sender — exactly the blocking exchange's
// accounting, regardless of chunking).
func (c *Comm) StartAlltoallv(o exch.Options) exch.Stream {
	if c.rank == 0 {
		c.world.stats.alltoalls.Add(1)
	}
	return &countedStream{Stream: exch.Start(c, o), c: c}
}

// countedStream mirrors streamed payloads into the world statistics at
// the sender, self-chunks excluded, matching AlltoallInto.
type countedStream struct {
	exch.Stream
	c *Comm
}

func (s *countedStream) Send(dst, idx int, data []complex128) error {
	if dst != s.c.rank {
		s.c.world.stats.alltoallBytes.Add(int64(len(data)) * 16)
	}
	return s.Stream.Send(dst, idx, data)
}
