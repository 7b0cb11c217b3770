package bench

import (
	"fmt"
	"io"
	"time"

	"soifft/internal/netsim"
	"soifft/internal/trace"
)

// Timeline renders modeled per-node execution Gantt charts for SOI and
// the triple-all-to-all class at paper scale — a visual form of the
// Section 7.4 time model that makes the "one exchange instead of three"
// structure immediately legible. The charts sit in a markdown code
// fence, so the output reads the same in a terminal and in a document.
func Timeline(w io.Writer, cfg Config, fabric netsim.Fabric, nodes int) {
	m := PaperNodeRates().Model(fabric, cfg.PointsPerNode, cfg.Beta, cfg.B)
	tmpi := m.Tmpi(nodes)
	tfft := m.Tfft(nodes)

	fmt.Fprintf(w, "**Modeled execution timeline: %d nodes on %s, %d points/node**\n\n",
		nodes, fabric.Name(), cfg.PointsPerNode)

	// Conventional: the three local FFT stages are interleaved with the
	// three transposes; model each local stage as a third of Tfft.
	fmt.Fprintln(w, "```")
	fmt.Fprintln(w, "Triple-all-to-all (MKL class):")
	var conv trace.Timeline
	third := tfft / 3
	for lane := 0; lane < min(4, nodes); lane++ {
		t := time.Duration(0)
		for rep := 0; rep < 3; rep++ {
			conv.Add(lane, "all-to-all", t, t+tmpi)
			t += tmpi
			conv.Add(lane, "local FFT", t, t+third)
			t += third
		}
	}
	conv.Render(w, 72)

	// SOI: convolution (+F_P), one oversampled exchange, segment FFTs.
	fmt.Fprintln(w, "\nSOI (single all-to-all):")
	var soi trace.Timeline
	tconv := time.Duration(float64(m.Tconv) * m.C)
	oversampled := time.Duration(float64(tmpi) * (1 + cfg.Beta))
	segfft := m.TfftOversampled(nodes)
	for lane := 0; lane < min(4, nodes); lane++ {
		t := time.Duration(0)
		soi.Add(lane, "convolution+F_P", t, t+tconv)
		t += tconv
		soi.Add(lane, "all-to-all (1+b)N", t, t+oversampled)
		t += oversampled
		soi.Add(lane, "segment FFTs", t, t+segfft)
	}
	soi.Render(w, 72)
	fmt.Fprintln(w, "```")
	fmt.Fprintf(w, "\nspeedup %.2fx (asymptote %.2fx)\n\n", m.Speedup(nodes), m.AsymptoticSpeedup())
}
