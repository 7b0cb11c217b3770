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
		kind  int
		root  int
		chunk int
	}
	ops := make([]op, rounds)
	for i := range ops {
		ops[i] = op{kind: sched.Intn(3), root: sched.Intn(size), chunk: 1 + sched.Intn(7)}
	}

	w := mustWorld(t, size)
	err := w.Run(func(c *Comm) error {
		val := func(r, i int) complex128 {
			return complex(float64(r*1000+i), float64(i))
		}
		for i, o := range ops {
			switch o.kind {
			case 0: // alltoall
				send := make([]complex128, size*o.chunk)
				for r := 0; r < size; r++ {
					for k := 0; k < o.chunk; k++ {
						send[r*o.chunk+k] = complex(float64(c.Rank()), float64(r*o.chunk+k))
					}
				}
				got := make([]complex128, size*o.chunk)
				if err := c.AlltoallInto(got, send, o.chunk); err != nil {
					return err
				}
				for r := 0; r < size; r++ {
					for k := 0; k < o.chunk; k++ {
						want := complex(float64(r), float64(c.Rank()*o.chunk+k))
						if got[r*o.chunk+k] != want {
							return fmt.Errorf("op %d alltoall: slot (%d,%d) %v want %v",
								i, r, k, got[r*o.chunk+k], want)
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
