package baseline

import (
	"testing"
	"time"

	"soifft/internal/mpi"
	"soifft/internal/signal"
)

func TestTimesAccessors(t *testing.T) {
	tm := Times{Compute: time.Second, Exchanges: 2 * time.Second, NumXchg: 3}
	if tm.Total() != 3*time.Second {
		t.Errorf("Total = %v", tm.Total())
	}
}

func TestAlgorithmNames(t *testing.T) {
	if (SixStep{}).Name() != "sixstep" {
		t.Error((SixStep{}).Name())
	}
	if (SixStep{Split: SplitTall}).Name() != "sixstep-tall" {
		t.Error((SixStep{Split: SplitTall}).Name())
	}
	if (BinaryExchange{}).Name() != "binexchange" {
		t.Error((BinaryExchange{}).Name())
	}
}

func TestSixStepReportsThreeExchanges(t *testing.T) {
	const n, r = 256, 4
	src := signal.Random(n, 1)
	got := make([]complex128, n)
	w, _ := mpi.NewWorld(r)
	nLocal := n / r
	err := w.Run(func(c *mpi.Comm) error {
		tm, err := SixStep{}.Transform(c,
			got[c.Rank()*nLocal:(c.Rank()+1)*nLocal],
			src[c.Rank()*nLocal:(c.Rank()+1)*nLocal], n)
		if err != nil {
			return err
		}
		if tm.NumXchg != 3 {
			t.Errorf("rank %d: NumXchg = %d", c.Rank(), tm.NumXchg)
		}
		if tm.Total() <= 0 {
			t.Errorf("rank %d: nonpositive total", c.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDistTransposeDimensionErrors(t *testing.T) {
	w, _ := mpi.NewWorld(3)
	err := w.Run(func(c *mpi.Comm) error {
		_, err := Transpose(c, make([]complex128, 8), 4, 6) // 3 does not divide 4
		return err
	})
	if err == nil {
		t.Error("expected dims error")
	}
	err = w.Run(func(c *mpi.Comm) error {
		_, err := Transpose(c, make([]complex128, 5), 6, 6) // wrong local length
		return err
	})
	if err == nil {
		t.Error("expected length error")
	}
}
