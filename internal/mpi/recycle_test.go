package mpi

import (
	"runtime"
	"slices"
	"testing"
)

func ramp(n int, base float64) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(base+float64(i), -base)
	}
	return v
}

// TestRecvIntoDstSurvivesRecycledSend: once RecvInto has returned, the
// buffer it copied out of serves the next same-length Send, which then
// allocates no payload copy, and dst keeps what it received.
func TestRecvIntoDstSurvivesRecycledSend(t *testing.T) {
	const n, tag = 4099, 5 // payload-sized, a length no other test uses
	w := mustWorld(t, 1)
	err := w.Run(func(c *Comm) error {
		a := ramp(n, 1)
		dst := make([]complex128, n)
		if err := c.Send(0, tag, a); err != nil {
			return err
		}
		if err := c.RecvInto(dst, 0, tag); err != nil {
			return err
		}
		for round := 2; round < 6; round++ {
			payload := ramp(n, float64(round))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := c.Send(0, tag, payload)
			runtime.ReadMemStats(&after)
			if err != nil {
				return err
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= n*16 {
				t.Errorf("round %d: Send allocated %d bytes, not the buffer RecvInto handed back", round, grew)
			}
			next := make([]complex128, n)
			if err := c.RecvInto(next, 0, tag); err != nil {
				return err
			}
			if !slices.Equal(next, ramp(n, float64(round))) {
				t.Errorf("round %d: received the wrong payload", round)
			}
			if !slices.Equal(dst, a) {
				t.Fatalf("round %d: a later Send changed the first RecvInto's dst", round)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRecvCResultNeverHandedOut: RecvC transfers ownership, so its slice
// never goes back to the free list — later same-length Sends copy into
// other buffers and leave it alone.
func TestRecvCResultNeverHandedOut(t *testing.T) {
	const n, tag = 4101, 6
	w := mustWorld(t, 1)
	err := w.Run(func(c *Comm) error {
		a := ramp(n, 1)
		if err := c.Send(0, tag, a); err != nil {
			return err
		}
		kept, err := c.RecvC(0, tag)
		if err != nil {
			return err
		}
		dst := make([]complex128, n)
		for round := 2; round < 6; round++ {
			if err := c.Send(0, tag, ramp(n, float64(round))); err != nil {
				return err
			}
			if err := c.RecvInto(dst, 0, tag); err != nil {
				return err
			}
		}
		if !slices.Equal(kept, a) {
			t.Error("the slice RecvC returned changed under later Sends")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendRecvIntoSteadyStateAllocs: a 1 MB Send and its RecvInto on a
// fresh world per op — how the benchmark runs every in-process transform —
// allocate the world's bookkeeping, not a payload copy.
func TestSendRecvIntoSteadyStateAllocs(t *testing.T) {
	payload := ramp(1<<16, 1) // 1 MB
	dst := make([]complex128, len(payload))
	op := func() {
		w := mustWorld(t, 2)
		if err := w.Run(func(c *Comm) error {
			if c.Rank() == 0 {
				return c.Send(1, 7, payload)
			}
			return c.RecvInto(dst, 0, 7)
		}); err != nil {
			t.Fatal(err)
		}
	}
	op() // warm the free list
	const ops = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / ops
	t.Logf("%d bytes/op", perOp)
	if perOp >= 64<<10 {
		t.Errorf("%d bytes/op, want < 64 KB", perOp)
	}
	if !slices.Equal(dst, payload) {
		t.Error("RecvInto delivered the wrong payload")
	}
}
