package mpi

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestCollectiveStress runs a randomized but rank-deterministic sequence
// of mixed collectives and point-to-point traffic on one world and
// cross-checks every result against a sequential oracle. This guards the
// FIFO/tag-matching discipline that all higher layers rely on.
func TestCollectiveStress(t *testing.T) {
	const (
		size   = 6
		rounds = 60
		seed   = 12345
	)
	// The op schedule must be identical on every rank (SPMD), so derive
	// it from a shared seed before spawning.
	sched := rand.New(rand.NewSource(seed))
	type op struct {
		kind   int
		root   int
		sizes  []int // a stream's chunk schedule
		window int
	}
	ops := make([]op, rounds)
	for i := range ops {
		ops[i] = op{kind: sched.Intn(3), root: sched.Intn(size), sizes: make([]int, 1+sched.Intn(3)), window: sched.Intn(3)}
		for k := range ops[i].sizes {
			ops[i].sizes[k] = sched.Intn(5)
		}
	}

	w := mustWorld(t, size)
	err := w.Run(func(c *Comm) error {
		val := func(r, i int) complex128 {
			return complex(float64(r*1000+i), float64(i))
		}
		for i, o := range ops {
			switch o.kind {
			case 0: // a chunked all-to-all stream
				chunk := 0
				for _, n := range o.sizes {
					chunk += n
				}
				send := make([]complex128, size*chunk)
				for k := range send {
					send[k] = complex(float64(c.Rank()), float64(k))
				}
				got := make([]complex128, size*chunk)
				if err := streamAll(c, got, send, o.sizes, o.window); err != nil {
					return err
				}
				for r := 0; r < size; r++ {
					for k := 0; k < chunk; k++ {
						want := complex(float64(r), float64(c.Rank()*chunk+k))
						if got[r*chunk+k] != want {
							return fmt.Errorf("op %d stream %v: slot (%d,%d) %v want %v",
								i, o.sizes, r, k, got[r*chunk+k], want)
						}
					}
				}
			case 1: // gather
				all, err := c.Gather(o.root, []complex128{val(c.Rank(), i)})
				if err != nil {
					return err
				}
				for r := 0; r < size && c.Rank() == o.root; r++ {
					if all[r] != val(r, i) {
						return fmt.Errorf("op %d gather slot %d: %v", i, r, all[r])
					}
				}
			case 2: // ring
				next := (c.Rank() + 1) % size
				prev := (c.Rank() - 1 + size) % size
				if err := c.Send(next, 50+i, []complex128{val(c.Rank(), i)}); err != nil {
					return err
				}
				got := make([]complex128, 1)
				if err := c.RecvInto(got, prev, 50+i); err != nil {
					return err
				}
				if got[0] != val(prev, i) {
					return fmt.Errorf("op %d ring: got %v want %v", i, got[0], val(prev, i))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
