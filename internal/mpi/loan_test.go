package mpi

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"soifft/internal/exch"
	"soifft/internal/mpinet"
)

// streamAll runs one stream over sizes on c: every chunk of send to every
// rank (destination dst's chunks at dst·Σsizes, laid out like recv), a
// full drain that also copies the self chunks into recv, then Close. It
// returns the first failure the drain saw.
func streamAll(c *Comm, recv, send []complex128, sizes []int, window int) error {
	total, offs := 0, make([]int, len(sizes))
	for idx, n := range sizes {
		offs[idx] = total
		total += n
	}
	st := c.StartAlltoallv(exch.Options{Sizes: sizes, Recv: recv, Window: window})
	defer st.Close()
	for idx, n := range sizes {
		for k := 1; k <= c.Size(); k++ {
			dst := (c.Rank() + k) % c.Size()
			if err := st.Send(dst, idx, send[dst*total+offs[idx]:][:n]); err != nil {
				return err
			}
		}
	}
	var err error
	for {
		ch, ok := st.Next()
		if !ok {
			return err
		}
		if ch.Err == nil && ch.Src == c.Rank() {
			copy(recv[c.Rank()*total+offs[ch.Index]:], ch.Data)
		}
		if err == nil {
			err = ch.Err
		}
	}
}

// TestStreamLoanRecvSurvivesSendPoison: once a stream has closed no peer
// reads the data it lent any more — each rank NaN-poisons its send the
// moment Close returns (a peer still copying is a data race under
// -race), and after every rank returned every recv holds the exchanged
// values — and the world books each loan as the buffered message it
// replaced.
func TestStreamLoanRecvSurvivesSendPoison(t *testing.T) {
	const chunk = 64
	for _, sizes := range [][]int{{chunk}, {16, 48}, {chunk / 4, chunk / 4, chunk / 4, chunk / 4}} {
		for _, size := range []int{2, 3, 4} {
			w := mustWorld(t, size)
			sends := make([][]complex128, size)
			recvs := make([][]complex128, size)
			var returned sync.WaitGroup
			returned.Add(size)
			err := w.Run(func(c *Comm) error {
				k := c.Rank()
				sends[k], recvs[k] = make([]complex128, size*chunk), make([]complex128, size*chunk)
				for i := range sends[k] {
					sends[k][i] = complex(float64(k), float64(i))
				}
				err := streamAll(c, recvs[k], sends[k], sizes, 1)
				nan := complex(math.NaN(), math.NaN())
				for i := range sends[k] {
					sends[k][i] = nan
				}
				returned.Done()
				returned.Wait()
				return err
			})
			if err != nil {
				t.Fatalf("sizes %v, size %d: %v", sizes, size, err)
			}
			for k := 0; k < size; k++ {
				for src := 0; src < size; src++ {
					for i := 0; i < chunk; i++ {
						want := complex(float64(src), float64(k*chunk+i))
						if got := recvs[k][src*chunk+i]; got != want {
							t.Fatalf("sizes %v, size %d rank %d: element %d from %d is %v, want %v", sizes, size, k, i, src, got, want)
						}
					}
				}
			}
			st := w.Stats()
			msgs := int64(size * (size - 1) * len(sizes))
			bytes := int64(size*(size-1)) * chunk * 16
			if st.P2PMessages != msgs || st.P2PBytes != bytes || st.AlltoallBytes != bytes || st.Alltoalls != 1 {
				t.Errorf("sizes %v, size %d: stats %+v, want %d messages of %d bytes in all, in one all-to-all",
					sizes, size, st, msgs, bytes)
			}
		}
	}
}

// TestStreamLoanLenderAbortsBeforeCopying: a rank that fails in the
// middle of a stream — after lending its first chunks, or before
// starting its own — leaves its peers with a typed abort within a
// second: their loans to it are revoked, not waited on, and no
// goroutine leaks.
func TestStreamLoanLenderAbortsBeforeCopying(t *testing.T) {
	const size, chunk = 3, 8
	sizes := []int{chunk, chunk}
	for _, lends := range []bool{true, false} {
		before := runtime.NumGoroutine()
		w := mustWorld(t, size)
		errs := make([]error, size)
		elapsed := make([]time.Duration, size)
		boom := errors.New("rank 1 dies")
		done := make(chan error, 1)
		go func() {
			done <- w.Run(func(c *Comm) error {
				send := make([]complex128, size*2*chunk)
				if c.Rank() == 1 {
					if lends { // chunk 0 to every peer, then fail without settling
						st := c.StartAlltoallv(exch.Options{Sizes: sizes, Recv: make([]complex128, size*2*chunk)})
						for r := 0; r < size; r++ {
							if err := st.Send(r, 0, send[r*2*chunk:][:chunk]); err != nil {
								return err
							}
						}
					}
					time.Sleep(20 * time.Millisecond) // the peers reach their wait first
					return boom
				}
				start := time.Now()
				errs[c.Rank()] = streamAll(c, make([]complex128, size*2*chunk), send, sizes, 1)
				elapsed[c.Rank()] = time.Since(start)
				return nil
			})
		}()
		var err error
		select {
		case err = <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("lends %v: the peers still wait on their loans 5 s after rank 1 failed", lends)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("lends %v: world returned %v, want rank 1's failure", lends, err)
		}
		for _, k := range []int{0, 2} {
			var te *mpinet.TransportError
			if !errors.As(errs[k], &te) || te.Rank != 1 || !errors.Is(errs[k], mpinet.ErrAborted) {
				t.Errorf("lends %v rank %d: got %v, want a *mpinet.TransportError from rank 1 wrapping mpinet.ErrAborted", lends, k, errs[k])
			}
			if elapsed[k] > time.Second {
				t.Errorf("lends %v rank %d took %v to see the abort", lends, k, elapsed[k])
			}
		}
		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("lends %v: %d goroutines after the run, %d before", lends, n, before)
		}
	}
}

// TestStreamLoanAliasedRecvTyped: a chunk that overlaps the stream's own
// Recv — which this rank's receivers write while the peer reads the
// loan — is a typed error, and is not lent.
func TestStreamLoanAliasedRecvTyped(t *testing.T) {
	const size = 2
	w := mustWorld(t, size)
	err := w.Run(func(c *Comm) error {
		buf := make([]complex128, 6)
		st := c.StartAlltoallv(exch.Options{Sizes: []int{2}, Recv: buf[:4]})
		defer st.Close()
		peer := 1 - c.Rank()
		for _, data := range [][]complex128{buf[:2], buf[3:5]} {
			err := st.Send(peer, 0, data)
			var te *mpinet.TransportError
			if !errors.As(err, &te) || !errors.Is(err, exch.ErrOverlap) {
				return fmt.Errorf("rank %d: got %v, want a *mpinet.TransportError wrapping exch.ErrOverlap", c.Rank(), err)
			}
		}
		// A chunk outside Recv completes the stream.
		for _, dst := range []int{peer, c.Rank()} {
			if err := st.Send(dst, 0, make([]complex128, 2)); err != nil {
				return err
			}
		}
		for {
			ch, ok := st.Next()
			if !ok {
				return nil
			}
			if ch.Err != nil {
				return ch.Err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.P2PMessages != size*(size-1) {
		t.Errorf("aliased sends moved traffic: %+v", st)
	}
}

// TestStreamOutOfOrderChunkTyped: a chunk heading its queue out of
// schedule order ends its source's stream with a typed
// *mpinet.TransportError wrapping mpinet.ErrTagMismatch, and is handed
// back, so its lender does not wait on it.
func TestStreamOutOfOrderChunkTyped(t *testing.T) {
	w := mustWorld(t, 2)
	var got error
	err := w.Run(func(c *Comm) error {
		st := c.StartAlltoallv(exch.Options{Sizes: []int{1, 1}, Recv: make([]complex128, 4)})
		defer st.Close()
		for idx := 0; idx < 2; idx++ {
			if err := st.Send(c.Rank(), idx, []complex128{1}); err != nil {
				return err
			}
			if c.Rank() == 1 || idx == 1 { // rank 0 skips chunk 0 to rank 1
				if err := st.Send(1-c.Rank(), idx, []complex128{1}); err != nil {
					return err
				}
			}
		}
		for {
			ch, ok := st.Next()
			if !ok {
				return nil
			}
			if ch.Err != nil && c.Rank() == 1 {
				got = ch.Err
			} else if ch.Err != nil {
				return ch.Err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var te *mpinet.TransportError
	if !errors.As(got, &te) || te.Rank != 0 || !errors.Is(got, mpinet.ErrTagMismatch) {
		t.Errorf("got %v (%T), want a *mpinet.TransportError from rank 0 wrapping mpinet.ErrTagMismatch", got, got)
	}
}

// TestStreamPlainMessageTyped: a plain Send under a stream tag — a
// mis-sequenced program — ends its source's stream with a typed
// *mpinet.TransportError, not a panic in the receiver.
func TestStreamPlainMessageTyped(t *testing.T) {
	w := mustWorld(t, 2)
	var got error
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, exch.Tag(0), []complex128{1})
		}
		st := c.StartAlltoallv(exch.Options{Sizes: []int{1}, Recv: make([]complex128, 2)})
		defer st.Close()
		if err := st.Send(1, 0, []complex128{1}); err != nil {
			return err
		}
		for {
			ch, ok := st.Next()
			if !ok {
				return nil
			}
			if ch.Err != nil {
				got = ch.Err
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !errors.As(got, new(*mpinet.TransportError)) {
		t.Errorf("got %v (%T), want a *mpinet.TransportError", got, got)
	}
}

// TestStreamChunkingMatchesAlltoall: however the schedule is chunked, the
// stream fills recv with exactly what the one-chunk Alltoall returns,
// and books the same all-to-all volume, one message per chunk.
func TestStreamChunkingMatchesAlltoall(t *testing.T) {
	const size, chunk = 4, 5
	schedules := [][]int{{chunk}, {2, 3}, {1, 1, 3}, {0, 5}}
	w := mustWorld(t, size)
	err := w.Run(func(c *Comm) error {
		send := make([]complex128, size*chunk)
		for i := range send {
			send[i] = complex(float64(c.Rank()), float64(i))
		}
		want, err := c.Alltoall(send, chunk)
		if err != nil {
			return err
		}
		for _, sizes := range schedules {
			got := make([]complex128, size*chunk)
			if err := streamAll(c, got, send, sizes, 2); err != nil {
				return err
			}
			for i := range got {
				if got[i] != want[i] {
					return fmt.Errorf("rank %d schedule %v element %d: stream %v, alltoall %v", c.Rank(), sizes, i, got[i], want[i])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ops, chunks := int64(1+len(schedules)), int64(1)
	for _, s := range schedules {
		chunks += int64(len(s))
	}
	pairs := int64(size * (size - 1))
	if st := w.Stats(); st.Alltoalls != ops || st.AlltoallBytes != ops*pairs*chunk*16 || st.P2PMessages != chunks*pairs {
		t.Errorf("stats %+v: want %d all-to-alls of %d bytes each in %d messages", st, ops, pairs*chunk*16, chunks*pairs)
	}
}
