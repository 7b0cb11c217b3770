package baseline

import (
	"fmt"
	"testing"

	"soifft/internal/fft"
	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// runDistributed executes alg on a fresh world of r ranks over a random
// N-point input and returns the gathered result, the reference DFT and
// the world's communication stats.
func runDistributed(t *testing.T, alg Algorithm, n, r int, seed int64) ([]complex128, []complex128, mpi.Stats) {
	t.Helper()
	src := signal.Random(n, seed)
	want := make([]complex128, n)
	fft.Direct(want, src)
	got := make([]complex128, n)
	w, err := mpi.NewWorld(r)
	if err != nil {
		t.Fatal(err)
	}
	nLocal := n / r
	err = w.Run(func(c *mpi.Comm) error {
		in := src[c.Rank()*nLocal : (c.Rank()+1)*nLocal]
		out := got[c.Rank()*nLocal : (c.Rank()+1)*nLocal]
		_, err := alg.Transform(c, out, in, n)
		return err
	})
	if err != nil {
		t.Fatalf("%s N=%d R=%d: %v", alg.Name(), n, r, err)
	}
	return got, want, w.Stats()
}

func TestSixStepMatchesDirect(t *testing.T) {
	cases := []struct{ n, r int }{
		{64, 1}, {64, 2}, {256, 4}, {1024, 8}, {4096, 16},
		{576, 4},  // N = 24² (non power of two)
		{1296, 6}, // 6 ranks, N = 36²
		{900, 3},  // odd rank count
	}
	for _, split := range []SplitKind{SplitSquare, SplitTall} {
		alg := SixStep{Split: split}
		for _, c := range cases {
			got, want, _ := runDistributed(t, alg, c.n, c.r, int64(c.n))
			if e := signal.RelErrL2(got, want); e > 1e-10 {
				t.Errorf("%s N=%d R=%d: rel error %.3e", alg.Name(), c.n, c.r, e)
			}
		}
	}
}

func TestSixStepUsesThreeAlltoalls(t *testing.T) {
	_, _, stats := runDistributed(t, SixStep{}, 1024, 8, 1)
	if stats.Alltoalls != 3 {
		t.Errorf("six-step used %d all-to-alls, the paper says this class needs 3", stats.Alltoalls)
	}
}

func TestBinaryExchangeMatchesDirect(t *testing.T) {
	cases := []struct{ n, r int }{
		{64, 1}, {64, 2}, {64, 4}, {256, 8}, {1024, 16}, {4096, 8},
		{768, 4}, // non power-of-two N with power-of-two ranks
	}
	alg := BinaryExchange{}
	for _, c := range cases {
		got, want, _ := runDistributed(t, alg, c.n, c.r, int64(3*c.n))
		if e := signal.RelErrL2(got, want); e > 1e-10 {
			t.Errorf("binexchange N=%d R=%d: rel error %.3e", c.n, c.r, e)
		}
	}
}

func TestBinaryExchangeCommGrowsWithLogR(t *testing.T) {
	var counts []int
	for _, r := range []int{2, 4, 8} {
		n := 64 * r * r
		src := signal.Random(n, 7)
		got := make([]complex128, n)
		w, _ := mpi.NewWorld(r)
		nLocal := n / r
		err := w.Run(func(c *mpi.Comm) error {
			tm, err := BinaryExchange{}.Transform(c,
				got[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
				src[c.Rank()*nLocal:(c.Rank()+1)*nLocal], n)
			if err == nil && c.Rank() == 0 {
				counts = append(counts, tm.NumXchg)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// log2(R)+1 exchanges: 2, 3, 4.
	for i, want := range []int{2, 3, 4} {
		if counts[i] != want {
			t.Errorf("R=%d: %d exchanges, want %d", 1<<(i+1), counts[i], want)
		}
	}
}

func TestBinaryExchangeRejectsBadShapes(t *testing.T) {
	w, _ := mpi.NewWorld(3)
	err := w.Run(func(c *mpi.Comm) error {
		buf := make([]complex128, 16)
		_, err := BinaryExchange{}.Transform(c, buf, buf, 48)
		return err
	})
	if err == nil {
		t.Error("expected error for non power-of-two rank count")
	}
	w2, _ := mpi.NewWorld(8)
	err = w2.Run(func(c *mpi.Comm) error {
		buf := make([]complex128, 4)
		_, err := BinaryExchange{}.Transform(c, buf, buf, 32) // N < R²
		return err
	})
	if err == nil {
		t.Error("expected error for N < R²")
	}
}

func TestChooseSplit(t *testing.T) {
	n1, n2, err := ChooseSplit(4096, 8, SplitSquare)
	if err != nil || n1*n2 != 4096 || n1%8 != 0 || n2%8 != 0 {
		t.Fatalf("square split: %d×%d err=%v", n1, n2, err)
	}
	if n1 != 64 {
		t.Errorf("square split of 4096 should be 64×64, got %d×%d", n1, n2)
	}
	t1, t2, err := ChooseSplit(4096, 8, SplitTall)
	if err != nil || t1*t2 != 4096 {
		t.Fatalf("tall split: %d×%d err=%v", t1, t2, err)
	}
	if t1 <= n1 {
		t.Errorf("tall split n1=%d should exceed square n1=%d", t1, n1)
	}
	if _, _, err := ChooseSplit(30, 4, SplitSquare); err == nil {
		t.Error("expected no-split error for N=30, R=4")
	}
}

func TestSixStepRejectsBadArgs(t *testing.T) {
	w, _ := mpi.NewWorld(4)
	err := w.Run(func(c *mpi.Comm) error {
		buf := make([]complex128, 5)
		_, err := SixStep{}.Transform(c, buf, buf, 20) // N/R=5, no valid split
		return err
	})
	if err == nil {
		t.Error("expected split error")
	}
	err = w.Run(func(c *mpi.Comm) error {
		buf := make([]complex128, 3)
		_, err := SixStep{}.Transform(c, buf, buf, 64) // wrong local length
		return err
	})
	if err == nil {
		t.Error("expected local length error")
	}
}

func TestDistTransposeRoundTrip(t *testing.T) {
	const n1, n2, r = 8, 12, 4
	w, _ := mpi.NewWorld(r)
	src := signal.Random(n1*n2, 5)
	out := make([]complex128, n1*n2)
	err := w.Run(func(c *mpi.Comm) error {
		rows := n1 / r
		local := src[c.Rank()*rows*n2 : (c.Rank()+1)*rows*n2]
		tr, err := Transpose(c, local, n1, n2)
		if err != nil {
			return err
		}
		back, err := Transpose(c, tr, n2, n1)
		if err != nil {
			return err
		}
		copy(out[c.Rank()*rows*n2:(c.Rank()+1)*rows*n2], back)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := signal.MaxAbsErr(out, src); e != 0 {
		t.Errorf("transpose round trip differs by %.3e", e)
	}
}

func TestDistTransposeValues(t *testing.T) {
	const n1, n2, r = 4, 8, 2
	w, _ := mpi.NewWorld(r)
	src := make([]complex128, n1*n2)
	for i := range src {
		src[i] = complex(float64(i/n2), float64(i%n2)) // (row, col)
	}
	err := w.Run(func(c *mpi.Comm) error {
		rows := n1 / r
		local := src[c.Rank()*rows*n2 : (c.Rank()+1)*rows*n2]
		tr, err := Transpose(c, local, n1, n2)
		if err != nil {
			return err
		}
		trRows := n2 / r
		for j2 := 0; j2 < trRows; j2++ {
			for j1 := 0; j1 < n1; j1++ {
				got := tr[j2*n1+j1]
				want := complex(float64(j1), float64(c.Rank()*trRows+j2))
				if got != want {
					return fmt.Errorf("rank %d: tr[%d][%d] = %v want %v", c.Rank(), j2, j1, got, want)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSixStepBaseline runs the triple-all-to-all comparator.
func BenchmarkSixStepBaseline(b *testing.B) {
	const n, ranks = 1 << 18, 8
	src := signal.Random(n, 6)
	dst := make([]complex128, n)
	nLocal := n / ranks
	alg := SixStep{}
	b.SetBytes(int64(n) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := mpi.NewWorld(ranks)
		if err != nil {
			b.Fatal(err)
		}
		err = w.Run(func(c *mpi.Comm) error {
			_, err := alg.Transform(c,
				dst[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
				src[c.Rank()*nLocal:(c.Rank()+1)*nLocal], n)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
