package bench

import (
	"math"
	"time"

	"soifft/internal/netsim"
	"soifft/internal/perfmodel"
)

// Calibration holds the single-node compute rates that the figures
// combine with the interconnect models to price paper-scale runs (the
// paper's own Section 7.4 methodology).
type Calibration struct {
	// FFTFlopsPerSec is the sustained rate of the node-local FFT, using
	// the 5·n·log2(n) convention.
	FFTFlopsPerSec float64
	// ConvFlopsPerSec is the sustained rate of the SOI convolution
	// (8 real flops per complex multiply-add).
	ConvFlopsPerSec float64
}

// PaperNodeRates returns the compute rates of the paper's evaluation
// node (Table 1: dual Xeon E5-2670, 330 DP GFLOPS peak) at the
// efficiencies the paper reports in Section 7.4: FFT "often hovering
// around 10% of peak" and convolution "about 40% of peak". The figures
// are priced at these rates, so their modeled columns depend on no
// machine; what the Go kernels reach on a given machine is what
// benchmark/'s machine.* and kernel rows measure.
func PaperNodeRates() Calibration {
	const peak = 330e9
	return Calibration{
		FFTFlopsPerSec:  0.10 * peak,
		ConvFlopsPerSec: 0.40 * peak,
	}
}

// TfftSingle returns the modeled single-node FFT time for points complex
// points at c's FFT rate.
func (c Calibration) TfftSingle(points int64) time.Duration {
	fl := 5 * float64(points) * math.Log2(float64(points))
	return time.Duration(fl / c.FFTFlopsPerSec * float64(time.Second))
}

// Tconv returns the modeled per-node convolution time for the given
// per-node points, taps and oversampling.
func (c Calibration) Tconv(points int64, b int, beta float64) time.Duration {
	fl := float64(points) * (1 + beta) * float64(b) * 8
	return time.Duration(fl / c.ConvFlopsPerSec * float64(time.Second))
}

// Model assembles the Section 7.4 execution-time model for a fabric at
// the given weak-scaling load.
func (c Calibration) Model(fabric netsim.Fabric, pointsPerNode int64, beta float64, b int) perfmodel.Model {
	m := perfmodel.Model{
		PointsPerNode: pointsPerNode,
		Tconv:         c.Tconv(pointsPerNode, b, beta),
		Beta:          beta,
		C:             1.0,
		Fabric:        fabric,
	}
	m.CalibrateAlpha(c.TfftSingle(pointsPerNode))
	return m
}
