package bench

import (
	"fmt"

	"soifft/internal/fft"
	"soifft/internal/fft32"
	"soifft/internal/netsim"
	"soifft/internal/signal"
)

// AblatePrecision reproduces the paper's Section 7.3 closing argument:
// "at an accuracy level of 10 digits, SOI outperforms Intel MKL by more
// than twofold — which is likely the best speedup achievable by a
// 6-digit-accurate single-precision Intel MKL." A single-precision
// triple-all-to-all library halves every byte on the wire (and roughly
// halves compute), so its best case over double MKL is ~2× when
// communication dominates — at the cost of dropping to ~6 digits.
// Double-precision SOI at its ~10-digit rung reaches the same ~2× while
// keeping four more digits.
func AblatePrecision(cfg Config) *Table {
	t := &Table{
		Title: "Ablation: reduced-accuracy SOI vs single-precision library (Section 7.3)",
		Header: []string{"configuration", "digits", "time @64 Gordon",
			"speedup vs double 3xA2A"},
	}
	fabric := netsim.Gordon()
	const n = 64
	mDouble := PaperNodeRates().Model(fabric, cfg.PointsPerNode, cfg.Beta, cfg.B)
	tDouble := mDouble.TStandard(n)

	// Single-precision library: half the bytes, ~half the FFT time.
	tmpiSingle := fabric.AlltoallTime(n, cfg.PointsPerNode*8)
	tSingle := mDouble.Tfft(n)/2 + 3*tmpiSingle

	// SOI at the ~10-digit rung (B = 34 preset).
	mSOI10 := PaperNodeRates().Model(fabric, cfg.PointsPerNode, cfg.Beta, 34)
	tSOI10 := mSOI10.TSOI(n)
	// And at full accuracy for reference.
	tSOIFull := mDouble.TSOI(n)

	// Measure the single-precision digits for real with the complex64
	// engine (the paper quotes "6-digit-accurate single-precision MKL").
	singleDigits := measuredSingleDigits()

	row := func(name string, digits float64, tm float64) {
		t.AddRow(name, fmt.Sprintf("%.1f", digits), fmt.Sprintf("%.2fs", tm),
			fmt.Sprintf("%.2fx", tDouble.Seconds()/tm))
	}
	row("double 3xA2A (MKL class)", 15.5, tDouble.Seconds())
	row("single 3xA2A (measured digits)", singleDigits, tSingle.Seconds())
	row("double SOI, full accuracy", 14.5, tSOIFull.Seconds())
	row("double SOI, ~10 digits", 10.0, tSOI10.Seconds())
	t.Notes = append(t.Notes,
		"single-precision digits measured with the complex64 engine (internal/fft32) at N=2^16",
		"paper Section 7.3: 10-digit SOI matches the best a 6-digit single-precision library could do, with 4 more digits")
	return t
}

// measuredSingleDigits runs a real complex64 transform and scores it
// against the double-precision engine.
func measuredSingleDigits() float64 {
	const n = 1 << 16
	p, err := fft32.NewPlan(n)
	if err != nil {
		return 6 // conservative fallback; should not happen for 2^16
	}
	src := signal.Random(n, 4)
	ref, err := fft.Forward(src)
	if err != nil {
		return 6
	}
	dst := make([]complex64, n)
	p.Forward(dst, fft32.FromComplex128(src))
	return signal.DBToDigits(signal.SNRdB(fft32.ToComplex128(dst), ref))
}
