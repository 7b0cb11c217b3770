package mpi

import (
	"errors"
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"soifft/internal/mpinet"
)

// worldSizes covers degenerate, power-of-two and odd sizes.
var worldSizes = []int{1, 2, 3, 4, 5, 7, 8, 13, 16}

func mustWorld(t *testing.T, size int) *World {
	t.Helper()
	w, err := NewWorld(size)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldRejectsBadSize(t *testing.T) {
	for _, s := range []int{0, -1} {
		if _, err := NewWorld(s); err == nil {
			t.Errorf("NewWorld(%d): expected error", s)
		}
	}
}

func TestSendRecvRing(t *testing.T) {
	for _, size := range worldSizes {
		w := mustWorld(t, size)
		err := w.Run(func(c *Comm) error {
			next := (c.Rank() + 1) % size
			prev := (c.Rank() - 1 + size) % size
			if err := c.Send(next, 7, []complex128{complex(float64(c.Rank()), 0)}); err != nil {
				return err
			}
			got, err := c.RecvC(prev, 7)
			if err != nil {
				return err
			}
			if len(got) != 1 || real(got[0]) != float64(prev) {
				return fmt.Errorf("rank %d: got %v from %d", c.Rank(), got, prev)
			}
			return nil
		})
		if err != nil {
			t.Errorf("size %d: %v", size, err)
		}
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := mustWorld(t, 2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []complex128{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not be visible to the receiver
			return nil
		}
		got, err := c.RecvC(0, 0)
		if err != nil {
			return err
		}
		if got[0] != 1 {
			return fmt.Errorf("send did not copy: got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMessageOrderPreserved(t *testing.T) {
	w := mustWorld(t, 2)
	err := w.Run(func(c *Comm) error {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []complex128{complex(float64(i), 0)})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			got, err := c.RecvC(0, 3)
			if err != nil {
				return err
			}
			if real(got[0]) != float64(i) {
				return fmt.Errorf("message %d arrived out of order: %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherAllgather(t *testing.T) {
	for _, size := range worldSizes {
		w := mustWorld(t, size)
		err := w.Run(func(c *Comm) error {
			chunk := []complex128{complex(float64(c.Rank()), 0), complex(0, float64(c.Rank()))}
			g, err := c.Gather(1%size, chunk)
			if err != nil {
				return err
			}
			if c.Rank() == 1%size {
				if len(g) != 2*size {
					return fmt.Errorf("gather length %d", len(g))
				}
				for r := 0; r < size; r++ {
					if g[2*r] != complex(float64(r), 0) || g[2*r+1] != complex(0, float64(r)) {
						return fmt.Errorf("gather chunk %d corrupt: %v", r, g[2*r:2*r+2])
					}
				}
			} else if g != nil {
				return fmt.Errorf("non-root gather returned data")
			}
			return nil
		})
		if err != nil {
			t.Errorf("size %d: %v", size, err)
		}
	}
}

func TestAlltoallTransposesRankChunks(t *testing.T) {
	for _, size := range worldSizes {
		const chunk = 3
		w := mustWorld(t, size)
		err := w.Run(func(c *Comm) error {
			send := make([]complex128, size*chunk)
			for r := 0; r < size; r++ {
				for k := 0; k < chunk; k++ {
					send[r*chunk+k] = complex(float64(c.Rank()), float64(r*chunk+k))
				}
			}
			got, err := c.Alltoall(send, chunk)
			if err != nil {
				return err
			}
			for r := 0; r < size; r++ {
				for k := 0; k < chunk; k++ {
					want := complex(float64(r), float64(c.Rank()*chunk+k))
					if got[r*chunk+k] != want {
						return fmt.Errorf("rank %d: from %d slot %d got %v want %v",
							c.Rank(), r, k, got[r*chunk+k], want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Errorf("size %d: %v", size, err)
		}
	}
}

func TestStatsCounting(t *testing.T) {
	w := mustWorld(t, 4)
	err := w.Run(func(c *Comm) error {
		send := make([]complex128, 4*10)
		if _, err := c.Alltoall(send, 10); err != nil {
			return err
		}
		if c.Rank() == 0 {
			return c.Send(1, 5, []complex128{1, 2})
		}
		if c.Rank() == 1 {
			_, err := c.RecvC(0, 5)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.Alltoalls != 1 {
		t.Errorf("Alltoalls = %d, want 1", s.Alltoalls)
	}
	// 4 ranks × 3 foreign destinations × 10 complex × 16 bytes.
	if want := int64(4 * 3 * 10 * 16); s.AlltoallBytes != want {
		t.Errorf("AlltoallBytes = %d, want %d", s.AlltoallBytes, want)
	}
	if s.P2PMessages == 0 || s.P2PBytes == 0 {
		t.Error("expected nonzero wire counters")
	}
}

func TestRunPropagatesError(t *testing.T) {
	w := mustWorld(t, 3)
	boom := errors.New("boom")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return boom
		}
		// Other ranks block forever; the abort must wake them.
		c.RecvC(2, 9)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
}

// TestTagMismatchIsTyped: a receive that finds another tag heading the
// queue returns a typed comm fault naming both tags, on every
// point-to-point receive, instead of panicking (the stream's case is
// TestStreamOutOfOrderChunkTyped).
func TestTagMismatchIsTyped(t *testing.T) {
	recvs := map[string]func(c *Comm) error{
		"RecvC": func(c *Comm) error {
			_, err := c.RecvC(0, 2)
			return err
		},
		"RecvInto": func(c *Comm) error { return c.RecvInto(make([]complex128, 1), 0, 2) },
	}
	for name, recv := range recvs {
		w := mustWorld(t, 2)
		var got error
		err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 1, []complex128{1})
			}
			got = recv(c)
			return nil
		})
		if err != nil {
			t.Fatalf("%s: world failed: %v", name, err)
		}
		var te *mpinet.TransportError
		if !errors.As(got, &te) || te.Rank != 0 || !errors.Is(got, mpinet.ErrTagMismatch) {
			t.Errorf("%s: got %v (%T), want a *mpinet.TransportError wrapping mpinet.ErrTagMismatch", name, got, got)
		}
	}
}

// TestInvalidRankIsTyped: a peer outside the world is a returned
// *mpinet.TransportError on every call that names one, not a panic.
func TestInvalidRankIsTyped(t *testing.T) {
	w := mustWorld(t, 2)
	err := w.Run(func(c *Comm) error {
		_, recvErr := c.RecvC(-1, 0)
		_, telErr := c.RecvTelemetry(2)
		for op, err := range map[string]error{
			"Send":          c.Send(5, 0, nil),
			"RecvC":         recvErr,
			"RecvInto":      c.RecvInto(nil, 2, 0),
			"RecvTelemetry": telErr,
		} {
			if !errors.As(err, new(*mpinet.TransportError)) {
				t.Errorf("rank %d %s: got %v, want a *mpinet.TransportError", c.Rank(), op, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPropAlltoallIsPermutation: an all-to-all must move every element
// exactly once — the multiset of values is preserved globally.
func TestPropAlltoallIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := 1 + rng.Intn(9)
		chunk := 1 + rng.Intn(20)
		w, err := NewWorld(size)
		if err != nil {
			return false
		}
		inSum := make([]complex128, size)
		outSum := make([]complex128, size)
		err = w.Run(func(c *Comm) error {
			local := rand.New(rand.NewSource(seed + int64(c.Rank())))
			send := make([]complex128, size*chunk)
			var s complex128
			for i := range send {
				send[i] = complex(local.Float64(), local.Float64())
				s += send[i]
			}
			inSum[c.Rank()] = s
			got, err := c.Alltoall(send, chunk)
			if err != nil {
				return err
			}
			var o complex128
			for _, v := range got {
				o += v
			}
			outSum[c.Rank()] = o
			return nil
		})
		if err != nil {
			return false
		}
		var ti, to complex128
		for r := 0; r < size; r++ {
			ti += inSum[r]
			to += outSum[r]
		}
		return cmplx.Abs(ti-to) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// BenchmarkAlltoall measures the in-process exchange primitive itself.
func BenchmarkAlltoall(b *testing.B) {
	const ranks, chunk = 8, 1 << 14
	b.SetBytes(int64(ranks) * ranks * chunk * 16)
	for i := 0; i < b.N; i++ {
		w, err := NewWorld(ranks)
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(c *Comm) error {
			_, err := c.Alltoall(make([]complex128, ranks*chunk), chunk)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
