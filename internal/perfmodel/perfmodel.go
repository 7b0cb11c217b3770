// Package perfmodel implements the execution-time model of paper
// Section 7.4 and its speedup projection (Fig 9).
//
// For a weak-scaling run with PointsPerNode complex points on each of n
// nodes:
//
//	T_fft(n)  ≈ α·(log2(PointsPerNode) + log2(n))     node-local FFT
//	T_conv(n) ≈ c·T_conv                              constant per node
//	T_mpi(n)  = fabric all-to-all of PointsPerNode·16 bytes per node
//
//	T_mkl(n) ≈ T_fft(n) + 3·T_mpi(n)
//	T_soi(n) ≈ T_fft((1+β)·n) + c·T_conv + (1+β)·T_mpi(n)
//
// with c ∈ [0.75, 1.25] expressing convolution-efficiency uncertainty.
package perfmodel

import (
	"fmt"
	"math"
	"time"

	"soifft/internal/netsim"
)

// Model carries the calibrated constants of the Section 7.4 projection.
type Model struct {
	// PointsPerNode is the weak-scaling load (paper: 2^28 complex points).
	PointsPerNode int64
	// Alpha is the fitted node-local FFT constant: Tfft(1) = Alpha ·
	// log2(PointsPerNode). Calibrate from a measured single-node FFT.
	Alpha time.Duration
	// Tconv is the measured node-local convolution time.
	Tconv time.Duration
	// Beta is the oversampling fraction (paper: 1/4).
	Beta float64
	// C scales Tconv: 1.0 is the measurement, 0.75 an optimistic 50%%-
	// efficiency convolution, 1.25 pessimistic.
	C float64
	// Fabric prices the all-to-all.
	Fabric netsim.Fabric
}

// CalibrateAlpha fits Alpha from a measured single-node FFT time.
func (m *Model) CalibrateAlpha(tfft1 time.Duration) {
	m.Alpha = time.Duration(float64(tfft1) / math.Log2(float64(m.PointsPerNode)))
}

// Validate reports configuration errors.
func (m Model) Validate() error {
	switch {
	case m.PointsPerNode <= 0:
		return fmt.Errorf("perfmodel: PointsPerNode must be positive")
	case m.Alpha <= 0:
		return fmt.Errorf("perfmodel: Alpha must be calibrated and positive")
	case m.Tconv < 0:
		return fmt.Errorf("perfmodel: Tconv must be nonnegative")
	case m.Beta <= 0:
		return fmt.Errorf("perfmodel: Beta must be positive")
	case m.C <= 0:
		return fmt.Errorf("perfmodel: C must be positive")
	case m.Fabric == nil:
		return fmt.Errorf("perfmodel: Fabric is required")
	}
	return nil
}

// Tfft models the node-local FFT time at n nodes (weak scaling: problem
// size grows with n, so only the log factor grows).
func (m Model) Tfft(n int) time.Duration {
	lg := math.Log2(float64(m.PointsPerNode)) + math.Log2(float64(n))
	return time.Duration(float64(m.Alpha) * lg)
}

// TfftOversampled is Tfft on the (1+β)-inflated problem.
func (m Model) TfftOversampled(n int) time.Duration {
	lg := math.Log2(float64(m.PointsPerNode)*(1+m.Beta)) + math.Log2(float64(n))
	return time.Duration(float64(m.Alpha) * lg * (1 + m.Beta))
}

// Tmpi models one all-to-all of the weak-scaling payload.
func (m Model) Tmpi(n int) time.Duration {
	return m.Fabric.AlltoallTime(n, m.PointsPerNode*16)
}

// TStandard models the triple-all-to-all library time (MKL class).
func (m Model) TStandard(n int) time.Duration {
	return m.Tfft(n) + 3*m.Tmpi(n)
}

// TSOI models the single-all-to-all SOI time. Oversampling inflates the
// exchanged *bytes* by (1+β); the per-exchange latency is paid once
// (versus three times for the standard algorithm).
func (m Model) TSOI(n int) time.Duration {
	comm := m.Fabric.AlltoallTime(n, int64(float64(m.PointsPerNode*16)*(1+m.Beta)))
	conv := time.Duration(float64(m.Tconv) * m.C)
	return m.TfftOversampled(n) + conv + comm
}

// Speedup is TStandard/TSOI at n nodes.
func (m Model) Speedup(n int) float64 {
	return float64(m.TStandard(n)) / float64(m.TSOI(n))
}

// AsymptoticSpeedup is the communication-dominated limit 3/(1+β)
// (paper Section 7.4: ≈2.4 at β=1/4, observed on 10GbE in Fig 8).
func (m Model) AsymptoticSpeedup() float64 { return 3 / (1 + m.Beta) }

// ProjectionPoint is one sample of the Fig 9 curve.
type ProjectionPoint struct {
	Nodes    int
	Speedups map[float64]float64 // keyed by the convolution factor c
}

// Projection reproduces Fig 9: the speedup over a node sweep for each
// convolution-efficiency factor. nodes should follow the paper's torus
// population n = 16k³.
func (m Model) Projection(nodes []int, cs []float64) []ProjectionPoint {
	out := make([]ProjectionPoint, 0, len(nodes))
	for _, n := range nodes {
		pt := ProjectionPoint{Nodes: n, Speedups: map[float64]float64{}}
		for _, c := range cs {
			mm := m
			mm.C = c
			pt.Speedups[c] = mm.Speedup(n)
		}
		out = append(out, pt)
	}
	return out
}

// TorusNodes returns the paper's torus populations 16k³ for k in [kMin,
// kMax], e.g. k=10 ⇒ 16000 nodes (Jaguar scale ~18K).
func TorusNodes(kMin, kMax int) []int {
	var nodes []int
	for k := kMin; k <= kMax; k++ {
		nodes = append(nodes, 16*k*k*k)
	}
	return nodes
}
