// Package mpi is an in-process message-passing runtime with MPI-shaped
// semantics: a World of R ranks, each running the same SPMD function on
// its own goroutine, communicating through core.Comm — point-to-point
// []complex128 sends and receives, Gather and the chunked all-to-all
// stream.
//
// It substitutes for the MPI layer of the paper's implementation (Go has
// no MPI ecosystem): the programming model, message matching and
// communication patterns are preserved, and every byte that would cross
// the wire is counted, so the interconnect models in internal/netsim can
// price a run on the paper's fabrics.
//
// Sends are buffered (the payload is copied into a recycled buffer, which
// RecvInto hands back) and receives match per (source, tag) in FIFO order;
// the one rendezvous is the all-to-all stream, whose chunks are lent by
// reference and copied once, and whose Close returns once its peers have
// copied them. Every method returns its fault: a rank returning an error
// aborts the world, and the other ranks' calls then return *AbortError.
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"soifft/internal/exch"
)

// TagMismatchError reports an out-of-sequence message, which indicates a
// bug in the SPMD program.
type TagMismatchError struct{ Want, Got int }

func (e *TagMismatchError) Error() string {
	return fmt.Sprintf("mpi: tag mismatch: receiver wants %d, next queued message has %d", e.Want, e.Got)
}

// AbortError is returned by Run for ranks interrupted by another rank's
// failure.
type AbortError struct{ Rank int }

func (e *AbortError) Error() string {
	return fmt.Sprintf("mpi: rank %d aborted: another rank failed", e.Rank)
}

// CommFault marks aborts as typed communication faults (core.Fault).
func (e *AbortError) CommFault() {}

// Stats aggregates communication volume over a world's lifetime.
// Collective byte counts include every payload byte moved between
// distinct ranks (self-copies are excluded, matching what a fabric would
// carry).
type Stats struct {
	P2PMessages   int64
	P2PBytes      int64
	Gathers       int64
	Alltoalls     int64 // number of all-to-all collectives — the paper's key metric
	AlltoallBytes int64 // inter-rank bytes carried by all-to-alls
}

// World is a fixed-size set of ranks sharing mailboxes and counters.
type World struct {
	size   int
	boxes  []*mailbox // boxes[src*size+dst], ordinary tag space
	sboxes []*mailbox // same geometry, streamed-exchange band (tag <= exch.TagBase)
	tboxes []*mailbox // same geometry, telemetry stat frames (tag telemetry.TagStat)

	abortOnce sync.Once
	dead      chan struct{} // closed when the world aborts; wakes waiting senders

	stats struct {
		p2pMessages, p2pBytes atomic.Int64
		gathers, alltoalls    atomic.Int64
		alltoallBytes         atomic.Int64
	}
}

// NewWorld creates a world of size ranks.
func NewWorld(size int) (*World, error) {
	if size <= 0 {
		return nil, fmt.Errorf("mpi: world size must be positive, got %d", size)
	}
	w := &World{
		size:   size,
		boxes:  make([]*mailbox, size*size),
		sboxes: make([]*mailbox, size*size),
		tboxes: make([]*mailbox, size*size),
		dead:   make(chan struct{}),
	}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
		w.sboxes[i] = newMailbox()
		w.tboxes[i] = newMailbox()
	}
	return w, nil
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes fn once per rank, each on its own goroutine, and waits for
// all of them. The first non-nil error aborts the world (blocked
// receivers are woken) and is returned; ranks that were interrupted
// report AbortError, which Run folds into the primary error. A panic in
// fn is a bug and is not recovered.
func (w *World) Run(fn func(c *Comm) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			if errs[rank] = fn(&Comm{world: w, rank: rank}); errs[rank] != nil {
				w.abort()
			}
		}(r)
	}
	wg.Wait()
	// Prefer a root-cause error over secondary AbortErrors.
	var abortErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if _, isAbort := err.(*AbortError); isAbort {
			abortErr = err
			continue
		}
		return err
	}
	return abortErr
}

func (w *World) abort() {
	w.abortOnce.Do(func() {
		close(w.dead)
		for _, b := range w.boxes {
			b.kill()
		}
		for _, b := range w.sboxes {
			b.kill()
		}
		for _, b := range w.tboxes {
			b.kill()
		}
	})
}

// Stats snapshots the accumulated communication counters.
func (w *World) Stats() Stats {
	return Stats{
		P2PMessages:   w.stats.p2pMessages.Load(),
		P2PBytes:      w.stats.p2pBytes.Load(),
		Gathers:       w.stats.gathers.Load(),
		Alltoalls:     w.stats.alltoalls.Load(),
		AlltoallBytes: w.stats.alltoallBytes.Load(),
	}
}

// sendCopies recycles the buffered copies Send makes: Comm hands one back
// once RecvInto has copied it out. One list per process, not per world,
// because callers build a fresh world per transform.
var sendCopies exch.FreeList[complex128]
