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
)

// TestAlltoallIntoRecvSurvivesSendPoison: once AlltoallInto has returned
// no peer reads send any more — each rank NaN-poisons its send the moment
// its call returns (a peer still copying is a data race under -race), and
// after every rank returned every recv holds the exchanged values — and
// the world books each chunk as the buffered message it replaced.
func TestAlltoallIntoRecvSurvivesSendPoison(t *testing.T) {
	const chunk = 64
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
			err := c.AlltoallInto(recvs[k], sends[k], chunk)
			nan := complex(math.NaN(), math.NaN())
			for i := range sends[k] {
				sends[k][i] = nan
			}
			returned.Done()
			returned.Wait()
			return err
		})
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for k := 0; k < size; k++ {
			for src := 0; src < size; src++ {
				for i := 0; i < chunk; i++ {
					want := complex(float64(src), float64(k*chunk+i))
					if got := recvs[k][src*chunk+i]; got != want {
						t.Fatalf("size %d rank %d: element %d from %d is %v, want %v", size, k, i, src, got, want)
					}
				}
			}
		}
		st := w.Stats()
		msgs := int64(size * (size - 1))
		if st.P2PMessages != msgs || st.P2PBytes != msgs*chunk*16 || st.AlltoallBytes != msgs*chunk*16 || st.Alltoalls != 1 {
			t.Errorf("size %d: stats %+v, want %d messages of %d bytes in one all-to-all", size, st, msgs, chunk*16)
		}
	}
}

// TestAlltoallIntoLenderAbortsBeforeCopying: a rank that lent its chunks
// and then failed without borrowing anything leaves its peers with
// *AbortError within a second — their own loans to it are revoked, not
// waited on — and leaks no goroutine.
func TestAlltoallIntoLenderAbortsBeforeCopying(t *testing.T) {
	const size, chunk = 3, 8
	before := runtime.NumGoroutine()
	w := mustWorld(t, size)
	errs := make([]error, size)
	elapsed := make([]time.Duration, size)
	boom := errors.New("rank 1 dies after lending")
	done := make(chan error, 1)
	go func() {
		done <- w.Run(func(c *Comm) error {
			send := make([]complex128, size*chunk)
			if c.Rank() == 1 {
				back := make(chan struct{}, size)
				for r := 0; r < size; r++ {
					if r != 1 {
						l := &loan{data: send[r*chunk : (r+1)*chunk], back: back}
						c.world.box(1, r, tagAlltoall).put(packet{tag: tagAlltoall, loan: l})
					}
				}
				time.Sleep(20 * time.Millisecond) // the peers reach their wait first
				return boom
			}
			start := time.Now()
			errs[c.Rank()] = c.AlltoallInto(make([]complex128, size*chunk), send, chunk)
			elapsed[c.Rank()] = time.Since(start)
			return nil
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the peers still wait on their loans 5 s after the lender failed")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("world returned %v, want the lender's failure", err)
	}
	for _, k := range []int{0, 2} {
		var ae *AbortError
		if !errors.As(errs[k], &ae) {
			t.Errorf("rank %d: got %v, want *AbortError", k, errs[k])
		}
		if elapsed[k] > time.Second {
			t.Errorf("rank %d took %v to see the abort", k, elapsed[k])
		}
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the run, %d before", n, before)
	}
}

// TestAlltoallIntoAliasedBuffersTyped: a recv that overlaps send is a
// typed error before any traffic.
func TestAlltoallIntoAliasedBuffersTyped(t *testing.T) {
	w := mustWorld(t, 2)
	err := w.Run(func(c *Comm) error {
		buf := make([]complex128, 6)
		for _, recv := range [][]complex128{buf[:4], buf[1:5]} {
			err := c.AlltoallInto(recv, buf[:4], 2)
			var ce *CollectiveError
			if !errors.As(err, &ce) || !errors.Is(err, exch.ErrOverlap) {
				return fmt.Errorf("rank %d: got %v, want a *CollectiveError wrapping exch.ErrOverlap", c.Rank(), err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Alltoalls != 0 || st.P2PMessages != 0 {
		t.Errorf("aliased calls moved traffic: %+v", st)
	}
}
