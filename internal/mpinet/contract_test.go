package mpinet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"soifft/internal/baseline"
	"soifft/internal/core"
	"soifft/internal/exch"
)

// TestCommContractReturnsFaults runs every fallible core.Comm method, and
// the comparators built on them, against a failed peer on both links —
// an in-process world aborted by its other rank, and a TCP mesh whose
// other rank has closed. Each call must return, within twice the I/O
// deadline and without panicking, one typed failure: a *TransportError
// (a core.Fault) naming the failed peer and wrapping the link's cause,
// ErrAborted in process and ErrPeerClosed on the mesh. A call naming a
// rank outside the world names that rank instead, with its own cause.
func TestCommContractReturnsFaults(t *testing.T) {
	const ioT = 300 * time.Millisecond
	type recvTelemetry interface {
		RecvTelemetry(from int) ([]complex128, error)
	}
	ops := []struct {
		name string
		peer int // the rank the failure must name
		call func(c core.Comm) error
	}{
		{"Send", 1, func(c core.Comm) error { return c.Send(1, 5, []complex128{1}) }},
		{"RecvC", 1, func(c core.Comm) error {
			_, err := c.RecvC(1, 5)
			return err
		}},
		{"RecvInto", 1, func(c core.Comm) error { return c.RecvInto(make([]complex128, 1), 1, 5) }},
		{"StartAlltoallv", 1, func(c core.Comm) error {
			return exch.Alltoall(c, make([]complex128, 2), make([]complex128, 2), 1)
		}},
		{"Gather", 1, func(c core.Comm) error {
			_, err := c.Gather(0, make([]complex128, 1))
			return err
		}},
		{"StreamSend", 1, func(c core.Comm) error {
			st := c.StartAlltoallv(exch.Options{Sizes: []int{1}, Recv: make([]complex128, 2), Window: 1})
			defer st.Close()
			return st.Send(1, 0, []complex128{1})
		}},
		{"StreamNext", 1, func(c core.Comm) error {
			st := c.StartAlltoallv(exch.Options{Sizes: []int{1}, Recv: make([]complex128, 2), Window: 1})
			defer st.Close()
			for {
				ch, ok := st.Next()
				if !ok {
					return nil
				}
				if ch.Err != nil {
					return ch.Err
				}
			}
		}},
		{"RecvTelemetry", 1, func(c core.Comm) error {
			_, err := c.(recvTelemetry).RecvTelemetry(1)
			return err
		}},
		// A rank outside the world is a Fault too, not a panic.
		{"Send/invalid rank", 7, func(c core.Comm) error { return c.Send(7, 5, []complex128{1}) }},
		{"RecvInto/invalid rank", -1, func(c core.Comm) error { return c.RecvInto(make([]complex128, 1), -1, 5) }},
		{"StreamSend/invalid rank", 7, func(c core.Comm) error {
			st := c.StartAlltoallv(exch.Options{Sizes: []int{1}, Recv: make([]complex128, 2), Window: 1})
			defer st.Close()
			return st.Send(7, 0, []complex128{1})
		}},
		{"SixStep.Transform", 1, func(c core.Comm) error {
			_, err := baseline.SixStep{}.Transform(c, make([]complex128, 8), make([]complex128, 8), 16)
			return err
		}},
		{"BinaryExchange.Transform", 1, func(c core.Comm) error {
			_, err := baseline.BinaryExchange{}.Transform(c, make([]complex128, 8), make([]complex128, 8), 16)
			return err
		}},
	}
	// Each transport hands the call rank 0 of a two-rank world whose rank
	// 1 has already failed, and returns the call's error; cause is what
	// the failed link's calls wrap.
	transports := []struct {
		name  string
		cause error
		run   func(t *testing.T, call func(c core.Comm) error) error
	}{
		{"mpi", ErrAborted, func(t *testing.T, call func(c core.Comm) error) error {
			w, err := NewWorld(2)
			if err != nil {
				t.Fatal(err)
			}
			var got error
			_ = w.Run(func(c *Proc) error {
				if c.Rank() == 1 {
					return errors.New("rank 1 dies")
				}
				if _, err := c.RecvC(1, 99); err == nil { // returns once the world aborted
					t.Error("the world did not abort")
				}
				got = call(c)
				return nil
			})
			return got
		}},
		{"mpinet", ErrPeerClosed, func(t *testing.T, call func(c core.Comm) error) error {
			procs := chaosMesh(t, 2, ioT, nil)
			procs[1].Close()
			for deadline := time.Now().Add(2 * ioT); procs[0].Stats().LinkFailures == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("rank 0 never saw its peer close")
				}
			}
			return call(procs[0])
		}},
	}
	// A frame with another tag from a live peer is the same typed failure
	// on both transports, with one cause, never a panic.
	mistagged := map[string]func(t *testing.T, recv func(c core.Comm) error) error{
		"mpi": func(t *testing.T, recv func(c core.Comm) error) error {
			w, err := NewWorld(2)
			if err != nil {
				t.Fatal(err)
			}
			var got error
			if err := w.Run(func(c *Proc) error {
				if c.Rank() == 1 {
					return c.Send(0, 6, []complex128{1})
				}
				got = recv(c)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return got
		},
		"mpinet": func(t *testing.T, recv func(c core.Comm) error) error {
			procs := chaosMesh(t, 2, ioT, nil)
			if err := procs[1].Send(0, 6, []complex128{1}); err != nil {
				t.Fatal(err)
			}
			return recv(procs[0])
		},
	}
	for name, run := range mistagged {
		t.Run(name+"/mis-tagged frame", func(t *testing.T) {
			err := run(t, func(c core.Comm) error {
				_, err := c.RecvC(1, 5)
				return err
			})
			var te *TransportError
			if !errors.As(err, &te) || te.Rank != 1 || !errors.Is(err, ErrTagMismatch) {
				t.Errorf("a mis-tagged frame returned %T (%v), want a *TransportError naming rank 1 and wrapping ErrTagMismatch", err, err)
			}
			if !errors.As(err, new(core.Fault)) {
				t.Errorf("a mis-tagged frame returned %T (%v), not a core.Fault", err, err)
			}
		})
	}

	for _, tr := range transports {
		for _, op := range ops {
			t.Run(tr.name+"/"+op.name, func(t *testing.T) {
				var elapsed time.Duration
				err := tr.run(t, func(c core.Comm) (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panicked: %v", r)
							t.Errorf("%s panicked: %v", op.name, r)
						}
					}()
					start := time.Now()
					defer func() { elapsed = time.Since(start) }()
					return op.call(c)
				})
				if err == nil {
					t.Fatalf("%s on a failed peer returned nil", op.name)
				}
				if !errors.As(err, new(core.Fault)) {
					t.Errorf("%s returned %T (%v), not a core.Fault", op.name, err, err)
				}
				var te *TransportError
				if !errors.As(err, &te) || te.Rank != op.peer {
					t.Errorf("%s returned %v, want a *TransportError naming rank %d", op.name, err, op.peer)
				}
				if valid := op.peer == 1; errors.Is(err, tr.cause) != valid {
					t.Errorf("%s returned %v: wraps %v = %v, want %v", op.name, err, tr.cause, !valid, valid)
				}
				if elapsed > 2*ioT {
					t.Errorf("%s took %v, over twice the %v deadline", op.name, elapsed, ioT)
				}
			})
		}
	}
}
