package perfmodel

import (
	"math"
	"testing"
	"time"

	"soifft/internal/netsim"
)

// paperModel builds a model with constants in the ballpark of the paper's
// measurements: 2^28 points/node, node-local FFT of a few seconds,
// convolution comparable to the FFT (Section 7.4).
func paperModel(fabric netsim.Fabric) Model {
	m := Model{
		PointsPerNode: 1 << 28,
		Tconv:         1400 * time.Millisecond,
		Beta:          0.25,
		C:             1.0,
		Fabric:        fabric,
	}
	m.CalibrateAlpha(1300 * time.Millisecond)
	return m
}

func TestValidate(t *testing.T) {
	m := paperModel(netsim.Gordon())
	if err := m.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := m
	bad.Alpha = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected alpha error")
	}
	bad = m
	bad.Fabric = nil
	if err := bad.Validate(); err == nil {
		t.Error("expected fabric error")
	}
	bad = m
	bad.C = 0
	if err := bad.Validate(); err == nil {
		t.Error("expected c error")
	}
}

func TestAsymptoticSpeedup(t *testing.T) {
	m := paperModel(netsim.TenGigE())
	if got := m.AsymptoticSpeedup(); math.Abs(got-2.4) > 1e-12 {
		t.Errorf("3/(1+β) = %g, want 2.4", got)
	}
}

func TestEthernetSpeedupNearTheory(t *testing.T) {
	// Paper Fig 8: on 10GbE, measured speedups fell in [2.3, 2.4],
	// essentially the 3/(1+β) communication-bound limit.
	m := paperModel(netsim.TenGigE())
	for _, n := range []int{8, 16, 32, 64} {
		s := m.Speedup(n)
		if s < 2.2 || s > 2.4 {
			t.Errorf("n=%d: modeled 10GbE speedup %.3f outside [2.2, 2.4]", n, s)
		}
	}
}

func TestTorusSpeedupGrowsThenSaturates(t *testing.T) {
	// Fig 9 shape: speedup grows with n (bisection tightens) and stays
	// below the asymptote.
	m := paperModel(netsim.Gordon())
	prev := 0.0
	for _, n := range TorusNodes(2, 10) {
		s := m.Speedup(n)
		if s <= prev-0.01 {
			t.Errorf("speedup not (weakly) growing at n=%d: %.3f after %.3f", n, s, prev)
		}
		if s >= m.AsymptoticSpeedup()+1e-9 {
			t.Errorf("speedup %.3f exceeds asymptote %.3f", s, m.AsymptoticSpeedup())
		}
		prev = s
	}
	// At Jaguar scale the paper projects around 2x; accept a broad band.
	if s := m.Speedup(16000); s < 1.5 || s > 2.4 {
		t.Errorf("16K-node projection %.3f outside [1.5, 2.4]", s)
	}
}

func TestSpeedupAboveOneOnIB(t *testing.T) {
	// SOI must win on both IB fabrics at every evaluated scale — the
	// paper's headline result (Figs 5 and 6).
	for _, fab := range []netsim.Fabric{netsim.Endeavor(), netsim.Gordon()} {
		m := paperModel(fab)
		for _, n := range []int{2, 4, 8, 16, 32, 64} {
			if s := m.Speedup(n); s <= 1 {
				t.Errorf("%s n=%d: speedup %.3f ≤ 1", fab.Name(), n, s)
			}
		}
	}
}

func TestCFactorOrdering(t *testing.T) {
	m := paperModel(netsim.Gordon())
	lo, mid, hi := m, m, m
	lo.C, mid.C, hi.C = 0.75, 1.0, 1.25
	n := 1024
	if !(lo.Speedup(n) > mid.Speedup(n) && mid.Speedup(n) > hi.Speedup(n)) {
		t.Errorf("speedup must fall as convolution cost rises: %.3f %.3f %.3f",
			lo.Speedup(n), mid.Speedup(n), hi.Speedup(n))
	}
}

func TestProjectionCurve(t *testing.T) {
	m := paperModel(netsim.Gordon())
	pts := m.Projection(TorusNodes(2, 6), []float64{0.75, 1.0, 1.25})
	if len(pts) != 5 {
		t.Fatalf("expected 5 points, got %d", len(pts))
	}
	for _, pt := range pts {
		if len(pt.Speedups) != 3 {
			t.Errorf("n=%d: %d c-curves", pt.Nodes, len(pt.Speedups))
		}
		if !(pt.Speedups[0.75] > pt.Speedups[1.25]) {
			t.Errorf("n=%d: optimistic curve below pessimistic", pt.Nodes)
		}
	}
}

func TestTorusNodes(t *testing.T) {
	nodes := TorusNodes(1, 3)
	want := []int{16, 128, 432}
	for i := range want {
		if nodes[i] != want[i] {
			t.Errorf("TorusNodes[%d] = %d, want %d", i, nodes[i], want[i])
		}
	}
}

func TestGFLOPSMetric(t *testing.T) {
	m := paperModel(netsim.Gordon())
	g1 := m.GFLOPS(1, 2*time.Second)
	if g1 <= 0 {
		t.Fatal("GFLOPS must be positive")
	}
	// Halving the time doubles the rate.
	g2 := m.GFLOPS(1, time.Second)
	if math.Abs(g2/g1-2) > 1e-9 {
		t.Errorf("GFLOPS not inversely proportional to time: %.3f vs %.3f", g1, g2)
	}
	if m.GFLOPS(1, 0) != 0 {
		t.Error("zero time must yield zero GFLOPS")
	}
}

func TestWeakScalingFFTTime(t *testing.T) {
	m := paperModel(netsim.Gordon())
	// Tfft grows only logarithmically with n.
	t1, t64 := m.Tfft(1), m.Tfft(64)
	if t64 <= t1 {
		t.Error("Tfft must grow with n")
	}
	growth := float64(t64) / float64(t1)
	want := (28.0 + 6.0) / 28.0
	if math.Abs(growth-want) > 0.01 {
		t.Errorf("Tfft(64)/Tfft(1) = %.4f, want %.4f", growth, want)
	}
}

func TestStrongScalingModel(t *testing.T) {
	// Strong scaling (fixed total size): per-node payloads shrink like
	// 1/n, so bandwidth terms fall while the per-exchange *latency* is
	// paid 3× by the standard algorithm and once by SOI. The model's
	// finding: SOI's advantage survives — and in the latency-dominated
	// tail it is bounded by the exchange-count ratio rather than the
	// bandwidth ratio.
	base := paperModel(netsim.Gordon())
	sm := StrongModel{Model: base, TotalPoints: 1 << 34}
	s8 := sm.SpeedupStrong(8)
	if s8 < 1 {
		t.Errorf("strong-scaling speedup at 8 nodes %.2f; SOI should win", s8)
	}
	big := sm.SpeedupStrong(16384)
	if big < 1 || big > 3 {
		t.Errorf("16K-node strong-scaling speedup %.2f outside (1, 3): latency ratio bounds it", big)
	}
	// The speedup must never exceed 3 (the exchange-count ratio), the
	// ultimate ceiling when latency dominates everything.
	for _, n := range []int{8, 64, 512, 4096, 16384} {
		if s := sm.SpeedupStrong(n); s > 3 {
			t.Errorf("n=%d: speedup %.2f exceeds the 3x exchange-count ceiling", n, s)
		}
	}
}

func TestTSOIUsesOversampledBytes(t *testing.T) {
	// The SOI exchange must be priced at (1+β)·bytes with latency paid
	// once — check against hand computation on the Ethernet model.
	m := paperModel(netsim.TenGigE())
	n := 16
	want := m.Fabric.AlltoallTime(n, int64(float64(m.PointsPerNode*16)*1.25))
	got := m.TSOI(n) - m.TfftOversampled(n) - time.Duration(float64(m.Tconv)*m.C)
	if got != want {
		t.Errorf("SOI comm term %v, want %v", got, want)
	}
}

func TestProjectionDeterministic(t *testing.T) {
	m := paperModel(netsim.Gordon())
	a := m.Projection(TorusNodes(2, 4), []float64{1})
	b := m.Projection(TorusNodes(2, 4), []float64{1})
	for i := range a {
		if a[i].Speedups[1] != b[i].Speedups[1] {
			t.Fatal("projection not deterministic")
		}
	}
}
