package fft2d

import (
	"math"
	"math/cmplx"
	"testing"

	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// direct3D is the brute-force 3-D DFT reference (tiny sizes only).
func direct3D(src []complex128, n1, n2, n3 int) []complex128 {
	out := make([]complex128, n1*n2*n3)
	for k1 := 0; k1 < n1; k1++ {
		for k2 := 0; k2 < n2; k2++ {
			for k3 := 0; k3 < n3; k3++ {
				var acc complex128
				for x := 0; x < n1; x++ {
					for y := 0; y < n2; y++ {
						for z := 0; z < n3; z++ {
							ang := -2 * math.Pi * (float64(x*k1)/float64(n1) +
								float64(y*k2)/float64(n2) + float64(z*k3)/float64(n3))
							acc += src[(x*n2+y)*n3+z] * cmplx.Exp(complex(0, ang))
						}
					}
				}
				out[(k1*n2+k2)*n3+k3] = acc
			}
		}
	}
	return out
}

func scatter3(g Grid3D, global []complex128, rank int) []complex128 {
	i, j := g.Coords(rank)
	l1, l2 := g.LocalN1(), g.LocalN2()
	local := make([]complex128, g.LocalLen())
	for x := 0; x < l1; x++ {
		for y := 0; y < l2; y++ {
			gx, gy := i*l1+x, j*l2+y
			copy(local[(x*l2+y)*g.N3:(x*l2+y+1)*g.N3],
				global[(gx*g.N2+gy)*g.N3:(gx*g.N2+gy+1)*g.N3])
		}
	}
	return local
}

func gather3(g Grid3D, global, local []complex128, rank int) {
	i, j := g.Coords(rank)
	l1, l2 := g.LocalN1(), g.LocalN2()
	for x := 0; x < l1; x++ {
		for y := 0; y < l2; y++ {
			gx, gy := i*l1+x, j*l2+y
			copy(global[(gx*g.N2+gy)*g.N3:(gx*g.N2+gy+1)*g.N3],
				local[(x*l2+y)*g.N3:(x*l2+y+1)*g.N3])
		}
	}
}

func runGrid3(t *testing.T, g Grid3D, src []complex128, inverse bool) []complex128 {
	t.Helper()
	w, err := mpi.NewWorld(g.Pr * g.Pc)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]complex128, g.N1*g.N2*g.N3)
	err = w.Run(func(c *mpi.Comm) error {
		local := scatter3(g, src, c.Rank())
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
		gather3(g, out, res, c.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDistributed3DMatchesDirect(t *testing.T) {
	cases := []struct{ n1, n2, n3, pr, pc int }{
		{4, 4, 4, 2, 2},
		{8, 4, 6, 2, 2},
		{6, 6, 4, 3, 2},
		{4, 4, 8, 1, 4},
	}
	for _, cse := range cases {
		g, err := NewGrid3D(cse.n1, cse.n2, cse.n3, cse.pr, cse.pc)
		if err != nil {
			t.Errorf("NewGrid3D(%+v): %v", cse, err)
			continue
		}
		src := signal.Random(cse.n1*cse.n2*cse.n3, int64(cse.n1*100+cse.n2))
		want := direct3D(src, cse.n1, cse.n2, cse.n3)
		got := runGrid3(t, g, src, false)
		if e := signal.RelErrL2(got, want); e > 1e-10 {
			t.Errorf("%dx%dx%d on %dx%d: rel err %.3e", cse.n1, cse.n2, cse.n3, cse.pr, cse.pc, e)
		}
	}
}

func TestDistributed3DRoundTrip(t *testing.T) {
	g, err := NewGrid3D(8, 8, 8, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(512, 11)
	freq := runGrid3(t, g, src, false)
	back := runGrid3(t, g, freq, true)
	if e := signal.MaxAbsErr(back, src); e > 1e-11 {
		t.Errorf("3-D round trip error %.3e", e)
	}
}

func TestNewGrid3DErrors(t *testing.T) {
	if _, err := NewGrid3D(0, 4, 4, 2, 2); err == nil {
		t.Error("expected dims error")
	}
	if _, err := NewGrid3D(5, 4, 4, 2, 2); err == nil {
		t.Error("expected Pr divisibility error")
	}
	if _, err := NewGrid3D(4, 5, 4, 2, 2); err == nil {
		t.Error("expected Pc divisibility error")
	}
}

func TestPermutationsInvert(t *testing.T) {
	const l1, l2, n3 = 3, 4, 5
	src := signal.Random(l1*l2*n3, 12)
	mid := make([]complex128, len(src))
	back := make([]complex128, len(src))
	// The (x, z, y) and (y, z, x) orders the y and x phases use.
	for _, st := range [][3]int{{l2 * n3, 1, l2}, {1, l1 * n3, l1}} {
		permute(mid, src, l1, l2, n3, st[0], st[1], st[2], false)
		permute(back, mid, l1, l2, n3, st[0], st[1], st[2], true)
		if e := signal.MaxAbsErr(back, src); e != 0 {
			t.Errorf("strides %v: round trip failed", st)
		}
	}
}
