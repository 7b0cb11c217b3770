// Volume: distributed 2-D and 3-D FFTs on a pencil-decomposed process
// grid — the paper's Section 8 "generalize to higher-dimensional FFTs"
// direction. Note the communication contrast with 1-D: every exchange
// stays inside a small subgroup of the grid, which is exactly why the
// 1-D case (one unavoidable machine-wide all-to-all, which SOI minimizes)
// is the hard one.
package main

import (
	"fmt"
	"log"

	"soifft/internal/fft"
	"soifft/internal/fft2d"
	"soifft/internal/mpi"
	"soifft/internal/signal"
)

func main() {
	// ---- 2-D: a 256×256 image over a 2×4 grid of 8 ranks ----
	const rows, cols, pr, pc = 256, 256, 2, 4
	g, err := fft2d.NewGrid(rows, cols, pr, pc)
	if err != nil {
		log.Fatal(err)
	}
	src := signal.Random(rows*cols, 5)
	w, err := mpi.NewWorld(pr * pc)
	if err != nil {
		log.Fatal(err)
	}
	out := make([]complex128, rows*cols)
	err = w.Run(func(c *mpi.Comm) error {
		i, j := g.Coords(c.Rank())
		lr, lc := g.LocalRows(), g.LocalCols()
		local := make([]complex128, lr*lc)
		for r := 0; r < lr; r++ {
			copy(local[r*lc:(r+1)*lc], src[(i*lr+r)*cols+j*lc:(i*lr+r)*cols+(j+1)*lc])
		}
		res, err := g.Forward(c, local)
		if err != nil {
			return err
		}
		for r := 0; r < lr; r++ {
			copy(out[(i*lr+r)*cols+j*lc:(i*lr+r)*cols+(j+1)*lc], res[r*lc:(r+1)*lc])
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	serial, err := fft.NewPlan2D(rows, cols)
	if err != nil {
		log.Fatal(err)
	}
	want := make([]complex128, rows*cols)
	serial.Forward(want, src)
	st := w.Stats()
	fmt.Printf("2-D %dx%d over a %dx%d grid: rel err vs serial %.1e\n",
		rows, cols, pr, pc, signal.RelErrL2(out, want))
	fmt.Printf("  %d messages, %.1f MB exchanged within row and column groups — no machine-wide exchange needed\n",
		st.P2PMessages, float64(st.P2PBytes)/1e6)

	// ---- 3-D: a 32³ volume over the same grid ----
	g3, err := fft2d.NewGrid3D(32, 32, 32, pr, pc)
	if err != nil {
		log.Fatal(err)
	}
	vol := signal.Random(32*32*32, 6)
	w3, err := mpi.NewWorld(pr * pc)
	if err != nil {
		log.Fatal(err)
	}
	var roundTrip float64
	err = w3.Run(func(c *mpi.Comm) error {
		// Scatter the rank's pencil.
		i, j := g3.Coords(c.Rank())
		l1, l2 := g3.LocalN1(), g3.LocalN2()
		local := make([]complex128, g3.LocalLen())
		for x := 0; x < l1; x++ {
			for y := 0; y < l2; y++ {
				gx, gy := i*l1+x, j*l2+y
				copy(local[(x*l2+y)*32:(x*l2+y+1)*32], vol[(gx*32+gy)*32:(gx*32+gy+1)*32])
			}
		}
		freq, err := g3.Forward(c, local)
		if err != nil {
			return err
		}
		back, err := g3.Inverse(c, freq)
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			roundTrip = signal.MaxAbsErr(back, local)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("3-D 32^3 over the same grid: forward+inverse round-trip max err %.1e\n", roundTrip)
}
