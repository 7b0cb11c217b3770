package exch_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"soifft/internal/exch"
	"soifft/internal/mpi"
	"soifft/internal/mpinet"
)

// The Stream contract, run against the transports that implement it:
// the in-process runtime, whose chunks are lent by reference, and — where
// a link must die on its own — the TCP mesh.

// withRecv returns o with a fresh Recv for a size-rank world.
func withRecv(o exch.Options, size int) exch.Options {
	total := 0
	for _, n := range o.Sizes {
		total += n
	}
	o.Recv = make([]complex128, size*total)
	return o
}

// payload builds a distinguishable chunk for (src, dst, idx).
func payload(src, dst, idx, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(float64(src*1000+dst*100+idx*10), float64(i))
	}
	return out
}

// runWorld streams the full schedule on every rank of an in-process
// world and returns the chunks each rank consumed, keyed (src, idx).
func runWorld(t *testing.T, size int, o exch.Options) []map[[2]int][]complex128 {
	t.Helper()
	w, err := mpi.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]map[[2]int][]complex128, size)
	err = w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		got[rank] = map[[2]int][]complex128{}
		s := c.StartAlltoallv(withRecv(o, size))
		defer s.Close()
		done := make(chan error, 1)
		go func() {
			for {
				ch, ok := s.Next()
				if !ok {
					done <- nil
					return
				}
				if ch.Err != nil {
					done <- fmt.Errorf("rank %d: src %d failed: %w", rank, ch.Src, ch.Err)
					return
				}
				got[rank][[2]int{ch.Src, ch.Index}] = ch.Data
			}
		}()
		for idx, n := range o.Sizes {
			for dst := 0; dst < size; dst++ {
				if err := s.Send(dst, idx, payload(rank, dst, idx, n)); err != nil {
					return err
				}
			}
		}
		return <-done
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestStreamDeliversAllChunks(t *testing.T) {
	const size = 4
	o := exch.Options{Sizes: []int{3, 1, 5}, Window: 2}
	got := runWorld(t, size, o)
	for rank := 0; rank < size; rank++ {
		for src := 0; src < size; src++ {
			for idx, n := range o.Sizes {
				want := payload(src, rank, idx, n)
				data, ok := got[rank][[2]int{src, idx}]
				if !ok {
					t.Fatalf("rank %d missing chunk (src=%d idx=%d)", rank, src, idx)
				}
				if len(data) != len(want) {
					t.Fatalf("rank %d chunk (src=%d idx=%d): %d elements, want %d", rank, src, idx, len(data), len(want))
				}
				for i := range want {
					if data[i] != want[i] {
						t.Fatalf("rank %d chunk (src=%d idx=%d)[%d] = %v, want %v", rank, src, idx, i, data[i], want[i])
					}
				}
			}
		}
	}
}

// scaleCodec is a trivially reversible frame codec exercising the
// pluggable-codec seam: wire form is the payload negated.
type scaleCodec struct{}

func (scaleCodec) EncodeChunk(src []complex128) []complex128 {
	out := make([]complex128, len(src))
	for i, v := range src {
		out[i] = -v
	}
	return out
}

func (scaleCodec) DecodeChunk(wire []complex128, n int) ([]complex128, error) {
	if len(wire) != n {
		return nil, fmt.Errorf("codec: %d elements, want %d", len(wire), n)
	}
	out := make([]complex128, len(wire))
	for i, v := range wire {
		out[i] = -v
	}
	return out, nil
}

func TestStreamCodecRoundTrip(t *testing.T) {
	const size = 3
	o := exch.Options{Sizes: []int{2, 2}, Window: 1, Codec: scaleCodec{}}
	got := runWorld(t, size, o)
	for rank := 0; rank < size; rank++ {
		for src := 0; src < size; src++ {
			for idx, n := range o.Sizes {
				want := payload(src, rank, idx, n)
				data := got[rank][[2]int{src, idx}]
				for i := range want {
					if data[i] != want[i] {
						t.Fatalf("rank %d chunk (src=%d idx=%d)[%d] = %v, want %v (codec must be invisible)",
							rank, src, idx, i, data[i], want[i])
					}
				}
			}
		}
	}
}

// mesh connects size TCP ranks over loopback.
func mesh(t *testing.T, size int) []*mpinet.Proc {
	t.Helper()
	nodes := make([]*mpinet.Node, size)
	addrs := make([]string, size)
	for r := range nodes {
		n, err := mpinet.NewNode(r, size, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[r], addrs[r] = n, n.Addr()
	}
	procs := make([]*mpinet.Proc, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := range nodes {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			procs[r], errs[r] = nodes[r].Connect(addrs)
		}(r)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, p := range procs {
			if p != nil {
				p.Close()
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return procs
}

// TestStreamDeadSourceYieldsOneTypedFailure: a source whose link dies
// mid-schedule ends its own stream with exactly one typed failure, after
// the chunks it flushed first, and leaves the other sources alone.
func TestStreamDeadSourceYieldsOneTypedFailure(t *testing.T) {
	procs := mesh(t, 3)
	for _, p := range procs {
		p.SetIOTimeout(2 * time.Second)
	}
	o := exch.Options{Sizes: []int{2, 2, 2}, Window: 1}

	// Rank 1 sends one chunk to rank 0 and dies gracefully (its frame
	// flushed first); rank 2 sends rank 0 its whole schedule. Only rank
	// 0 consumes.
	s := procs[0].StartAlltoallv(withRecv(o, 3))
	defer s.Close()
	s1 := procs[1].StartAlltoallv(withRecv(o, 3))
	defer s1.Close()
	if err := s1.Send(0, 0, payload(1, 0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	procs[1].Shutdown()
	s2 := procs[2].StartAlltoallv(withRecv(o, 3))
	defer s2.Close()
	for idx := range o.Sizes {
		if err := s2.Send(0, idx, payload(2, 0, idx, 2)); err != nil {
			t.Fatal(err)
		}
		if err := s.Send(0, idx, payload(0, 0, idx, 2)); err != nil {
			t.Fatal(err)
		}
	}

	var fails, chunks int
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		if c.Err != nil {
			fails++
			var te *mpinet.TransportError
			if c.Src != 1 || !errors.As(c.Err, &te) || te.Rank != 1 {
				t.Fatalf("unexpected failure event: src=%d err=%v", c.Src, c.Err)
			}
			continue
		}
		chunks++
	}
	if fails != 1 {
		t.Fatalf("got %d failure events, want exactly 1", fails)
	}
	// 3 self + 3 from rank 2 + 1 from rank 1 before its link died.
	if chunks != 7 {
		t.Fatalf("got %d data chunks, want 7", chunks)
	}
}

// TestStreamLandsChunksInRecvSlots: every remote chunk is delivered as
// its Recv slot holding the sent payload; a chunk the wrong size for its
// slot ends that source's stream with one failure and leaves the other
// sources alone. Rank 0's Recv has a slot per rank; ranks 1 and 2 leave
// out their own, and rank 2's sources keep their places below it.
func TestStreamLandsChunksInRecvSlots(t *testing.T) {
	const size = 3
	w, err := mpi.NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	o := exch.Options{Sizes: []int{2, 3}, Window: 1}
	var recv0, recv2 exch.Options
	err = w.Run(func(c *mpi.Comm) error {
		rank := c.Rank()
		oo := withRecv(o, size-min(rank, 1))
		switch rank {
		case 0:
			recv0 = oo
		case 2:
			recv2 = oo
		}
		s := c.StartAlltoallv(oo)
		defer s.Close()
		for idx, n := range o.Sizes {
			for dst := 0; dst < size; dst++ {
				if rank == 2 && dst == 0 { // one element short, and nothing after it
					if idx == 0 {
						if err := s.Send(dst, idx, payload(rank, dst, idx, n-1)); err != nil {
							return err
						}
					}
					continue
				}
				if err := s.Send(dst, idx, payload(rank, dst, idx, n)); err != nil {
					return err
				}
			}
		}
		var fails int
		for {
			ch, ok := s.Next()
			if !ok {
				break
			}
			if ch.Err != nil {
				if fails++; rank != 0 || ch.Src != 2 {
					return fmt.Errorf("rank %d: source %d failed: %v", rank, ch.Src, ch.Err)
				}
				continue
			}
			if ch.Src != rank && &ch.Data[0] != &oo.Slot(rank, size, ch.Src, ch.Index)[0] {
				return fmt.Errorf("rank %d: chunk %d from %d was not delivered in its Recv slot", rank, ch.Index, ch.Src)
			}
		}
		if rank == 0 && fails != 1 {
			return fmt.Errorf("%d failure events, want one for source 2", fails)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := append(payload(1, 0, 0, 2), payload(1, 0, 1, 3)...)
	for i, v := range want {
		if got := recv0.Recv[5+i]; got != v {
			t.Fatalf("Recv[%d] = %v, want %v (source 1's chunks at offset 5)", 5+i, got, v)
		}
	}
	want = append(payload(1, 2, 0, 2), payload(1, 2, 1, 3)...)
	for i, v := range want {
		if got := recv2.Recv[5+i]; got != v {
			t.Fatalf("rank 2: Recv[%d] = %v, want %v (source 1's chunks at offset 5 of 10)", 5+i, got, v)
		}
	}
}
