package fft2d

import (
	"strings"
	"testing"

	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// scatter returns rank r's local block of a row-major rows×cols matrix.
func scatter(g Grid, global []complex128, rank int) []complex128 {
	i, j := g.Coords(rank)
	lr, lc := g.LocalRows(), g.LocalCols()
	local := make([]complex128, lr*lc)
	for r := 0; r < lr; r++ {
		copy(local[r*lc:(r+1)*lc],
			global[(i*lr+r)*g.Cols+j*lc:(i*lr+r)*g.Cols+(j+1)*lc])
	}
	return local
}

// gather writes rank r's local block back into the global matrix.
func gather(g Grid, global, local []complex128, rank int) {
	i, j := g.Coords(rank)
	lr, lc := g.LocalRows(), g.LocalCols()
	for r := 0; r < lr; r++ {
		copy(global[(i*lr+r)*g.Cols+j*lc:(i*lr+r)*g.Cols+(j+1)*lc],
			local[r*lc:(r+1)*lc])
	}
}

func runGrid(t *testing.T, g Grid, src []complex128, inverse bool) ([]complex128, mpi.Stats) {
	t.Helper()
	w, err := mpi.NewWorld(g.Pr * g.Pc)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]complex128, g.Rows*g.Cols)
	err = w.Run(func(c *mpi.Comm) error {
		local := scatter(g, src, c.Rank())
		var res []complex128
		var err error
		if inverse {
			res, err = g.Inverse(c, local)
		} else {
			res, err = g.Forward(c, local)
		}
		if err != nil {
			return err
		}
		gather(g, out, res, c.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, w.Stats()
}

func TestDistributed2DMatchesSerial(t *testing.T) {
	cases := []struct{ rows, cols, pr, pc int }{
		{8, 8, 2, 2},
		{16, 32, 2, 4},
		{32, 16, 4, 2},
		{24, 36, 2, 3},
		{64, 64, 4, 4},
		{12, 12, 1, 2}, // degenerate row groups
		{12, 12, 3, 1}, // degenerate column groups
	}
	for _, cse := range cases {
		g, err := NewGrid(cse.rows, cse.cols, cse.pr, cse.pc)
		if err != nil {
			t.Errorf("NewGrid(%+v): %v", cse, err)
			continue
		}
		src := signal.Random(cse.rows*cse.cols, int64(cse.rows*cse.cols))
		serial, err := fft.NewPlan2D(cse.rows, cse.cols)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, len(src))
		serial.Forward(want, src)
		got, _ := runGrid(t, g, src, false)
		if e := signal.RelErrL2(got, want); e > 1e-10 {
			t.Errorf("%dx%d on %dx%d grid: rel err %.3e", cse.rows, cse.cols, cse.pr, cse.pc, e)
		}
	}
}

func TestDistributed2DRoundTrip(t *testing.T) {
	g, err := NewGrid(16, 24, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(16*24, 9)
	freq, _ := runGrid(t, g, src, false)
	back, _ := runGrid(t, g, freq, true)
	if e := signal.MaxAbsErr(back, src); e > 1e-11 {
		t.Errorf("round trip error %.3e", e)
	}
}

func TestDistributed2DSubgroupExchanges(t *testing.T) {
	// The multi-dimensional FFT never needs a full-machine exchange,
	// unlike in-order 1-D: every message stays inside a row or column
	// group.
	g, err := NewGrid(32, 32, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(32*32, 10)
	_, stats := runGrid(t, g, src, false)
	if stats.Alltoalls != 0 {
		t.Errorf("world all-to-alls = %d, want 0", stats.Alltoalls)
	}
	// 4 ranks × 2 phases × 2 exchanges × 1 peer in a group of 2.
	if stats.P2PMessages != 16 {
		t.Errorf("point-to-point messages = %d, want 16", stats.P2PMessages)
	}
}

func TestNewGridErrors(t *testing.T) {
	bad := []struct {
		rows, cols, pr, pc int
		frag               string
	}{
		{0, 8, 2, 2, "positive"},
		{9, 8, 2, 2, "divide rows"},
		{8, 9, 2, 2, "divide cols"},
		{8, 8, 4, 4, "local row count"},
		{16, 12, 4, 2, "local column count"},
	}
	for _, c := range bad {
		_, err := NewGrid(c.rows, c.cols, c.pr, c.pc)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("NewGrid(%d,%d,%d,%d) err %v, want fragment %q",
				c.rows, c.cols, c.pr, c.pc, err, c.frag)
		}
	}
}

func TestTransformArgErrors(t *testing.T) {
	g, err := NewGrid(8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := mpi.NewWorld(2) // wrong world size
	err = w.Run(func(c *mpi.Comm) error {
		_, err := g.Forward(c, make([]complex128, 16))
		return err
	})
	if err == nil {
		t.Error("expected world-size error")
	}
	w2, _ := mpi.NewWorld(4)
	err = w2.Run(func(c *mpi.Comm) error {
		_, err := g.Forward(c, make([]complex128, 3))
		return err
	})
	if err == nil {
		t.Error("expected local-length error")
	}
}
