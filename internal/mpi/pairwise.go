package mpi

import "soifft/internal/exch"

// PairwiseAlltoallv is an alternative all-to-all implementation built
// from pairwise Sendrecv exchanges (paper Fig 3: "implemented via the
// MPI all-to-all primitive, or by other techniques such as non-blocking
// send-receive"). It performs size−1 rounds; in round d, rank p exchanges
// with rank p XOR-free partner (p+d) mod size and (p−d) mod size, which
// keeps every link busy without hot spots. Semantics and counters are
// identical to Alltoallv.
func (c *Comm) PairwiseAlltoallv(send []complex128, sendCounts, recvCounts []int) []complex128 {
	out, err := c.PairwiseAlltoallvChecked(send, sendCounts, recvCounts)
	if err != nil {
		panic(err)
	}
	return out
}

// PairwiseAlltoallvChecked is PairwiseAlltoallv returning typed errors
// instead of panicking, mirroring AlltoallvChecked.
func (c *Comm) PairwiseAlltoallvChecked(send []complex128, sendCounts, recvCounts []int) ([]complex128, error) {
	return c.exchangev("pairwise_alltoallv", c.pairwiseInto, send, sendCounts, recvCounts)
}

// PairwiseAlltoall is the equal-counts form of PairwiseAlltoallv.
func (c *Comm) PairwiseAlltoall(send []complex128, chunk int) []complex128 {
	recv := make([]complex128, c.world.size*chunk)
	sp := exch.EqualSpans(chunk)
	if err := c.pairwiseInto(recv, send, sp, sp); err != nil {
		panic(err)
	}
	return recv
}

func (c *Comm) pairwiseInto(recv, send []complex128, ss, rs exch.Spans) (err error) {
	defer recoverFault(&err)
	if err := c.enterAlltoall("pairwise_alltoallv", recv, send, ss, rs); err != nil {
		return err
	}
	size := c.world.size
	lo, hi := ss.Of(c.rank)
	rlo, rhi := rs.Of(c.rank)
	copy(recv[rlo:rhi], send[lo:hi])
	for d := 1; d < size; d++ {
		to, from := (c.rank+d)%size, (c.rank-d+size)%size
		lo, hi = ss.Of(to)
		rlo, rhi = rs.Of(from)
		c.world.stats.alltoallBytes.Add(int64(hi-lo) * 16)
		c.world.stats.sendrecvs.Add(1)
		c.send(to, tagAlltoall-d, send[lo:hi])
		if err := c.recvInto("pairwise_alltoallv", recv[rlo:rhi], from, tagAlltoall-d); err != nil {
			return err
		}
	}
	return nil
}
