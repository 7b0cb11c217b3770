package mpi

import (
	"errors"
	"testing"

	"soifft/internal/mpinet"
)

// TestGatherMismatchTyped: a rank sending the wrong chunk length must
// come back from the root's Gather as a typed *TransportError naming
// that rank, with no partial result, not a crash.
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
	var te *mpinet.TransportError
	if !errors.As(err, &te) {
		t.Fatalf("got %v (%T), want *mpinet.TransportError", err, err)
	}
	if te.Op != "gather" || te.Rank != 2 {
		t.Errorf("fault attributed to op=%q rank=%d, want gather from rank 2", te.Op, te.Rank)
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
			var te *mpinet.TransportError
			if !errors.As(err, &te) || te.Rank != 1 {
				t.Errorf("rank 0: got %v, want a *mpinet.TransportError naming rank 1", err)
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
			var te *mpinet.TransportError
			if !errors.As(err, &te) || te.Op != "alltoall" {
				t.Errorf("send length %d: got %v, want an alltoall *mpinet.TransportError", n, err)
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
	var te *mpinet.TransportError
	if !errors.As(err, &te) || errors.Is(err, mpinet.ErrAborted) {
		t.Fatalf("got %v (%T), want the mismatch's *mpinet.TransportError", err, err)
	}
}

// TestCheckedAbortSurfaces: a world abort comes back from Send and RecvC
// as a returned *mpinet.TransportError wrapping mpinet.ErrAborted, not a
// panic.
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
		var te *mpinet.TransportError
		if !errors.As(errs[i], &te) || !errors.Is(errs[i], mpinet.ErrAborted) {
			t.Errorf("rank 0 %s: got %v, want a *mpinet.TransportError wrapping mpinet.ErrAborted", op, errs[i])
		}
	}
}
