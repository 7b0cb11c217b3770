package mpi

import (
	"errors"
	"testing"
)

// TestGatherMismatchTyped: a rank sending the wrong chunk length must
// come back from the root's Gather as a typed CollectiveError, with no
// partial result, not a crash.
func TestGatherMismatchTyped(t *testing.T) {
	w, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(c *Comm) error {
		n := 4
		if c.Rank() == 2 {
			n = 5 // malformed: disagrees with the other ranks
		}
		out, err := c.Gather(0, make([]complex128, n))
		if out != nil {
			t.Errorf("rank %d: got a result alongside %v", c.Rank(), err)
		}
		return err
	})
	var ce *CollectiveError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v (%T), want *CollectiveError", err, err)
	}
	if ce.Op != "gather" || ce.Rank != 0 {
		t.Errorf("fault attributed to op=%q rank=%d, want gather on rank 0", ce.Op, ce.Rank)
	}
	if !errors.Is(err, ErrCountMismatch) {
		t.Errorf("error %v does not wrap ErrCountMismatch", err)
	}
}

// TestGatherCheckedMismatch: the mismatch comes back directly on the
// detecting rank, so a rank that handles it keeps the world up.
func TestGatherCheckedMismatch(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		n := 2 + c.Rank()
		out, err := c.Gather(0, make([]complex128, n))
		if c.Rank() == 0 {
			if !errors.Is(err, ErrCountMismatch) {
				t.Errorf("rank 0: got %v, want ErrCountMismatch", err)
			}
			if out != nil {
				t.Errorf("rank 0: got partial result alongside error")
			}
		}
		return nil
	})
	// Rank 0 swallowed the typed error deliberately; the world stays up.
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
}

// TestAlltoallvMalformedCounts: a send buffer that disagrees with
// size·chunk is a typed error on the calling rank, before any traffic.
func TestAlltoallvMalformedCounts(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		for _, n := range []int{3, 5} {
			_, err := c.Alltoall(make([]complex128, n), 2)
			var ce *CollectiveError
			if !errors.As(err, &ce) || !errors.Is(err, ErrCountMismatch) {
				t.Errorf("send length %d: got %v, want a CollectiveError wrapping ErrCountMismatch", n, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("world failed: %v", err)
	}
	if st := w.Stats(); st.Alltoalls != 0 || st.P2PMessages != 0 {
		t.Errorf("malformed calls moved traffic: %+v", st)
	}
}

// TestAlltoallvPeerCountMismatch: ranks disagreeing about the chunk
// length is detected on receive and returned typed.
func TestAlltoallvPeerCountMismatch(t *testing.T) {
	w, _ := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		chunk := 1 + c.Rank() // the ranks disagree about the chunk length
		_, err := c.Alltoall(make([]complex128, 2*chunk), chunk)
		return err
	})
	var ce *CollectiveError
	if !errors.As(err, &ce) {
		t.Fatalf("got %v (%T), want *CollectiveError", err, err)
	}
	if !errors.Is(err, ErrCountMismatch) {
		t.Errorf("error %v does not wrap ErrCountMismatch", err)
	}
}

// TestCheckedAbortSurfaces: a world abort comes back from Send and RecvC
// as a returned *AbortError, not a panic.
func TestCheckedAbortSurfaces(t *testing.T) {
	w, _ := NewWorld(2)
	errs := make([]error, 2)
	_ = w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			return errors.New("rank 1 dies")
		}
		_, err := c.RecvC(1, 7)
		errs[0] = err
		errs[1] = c.Send(1, 7, nil)
		return nil
	})
	for i, op := range []string{"RecvC", "Send"} {
		var ae *AbortError
		if !errors.As(errs[i], &ae) {
			t.Errorf("rank 0 %s: got %v, want *AbortError", op, errs[i])
		}
	}
}
