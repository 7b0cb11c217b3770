package bench

import (
	"fmt"

	"soifft/internal/netsim"
	"soifft/internal/perfmodel"
)

// StrongScaling models the fixed-total-size regime the paper does not
// evaluate: per-node payloads shrink as nodes grow, shifting the balance
// from bandwidth (where SOI's advantage is 3/(1+β)) toward per-exchange
// latency (where it is the raw exchange-count ratio 3).
func StrongScaling(cfg Config, totalPoints int64) *Table {
	t := &Table{
		Title: fmt.Sprintf("Extension: strong scaling (fixed total %d points, Gordon model)", totalPoints),
		Header: []string{"nodes", "points/node", "speedup", "3xA2A comm ms",
			"SOI comm ms"},
	}
	m := perfmodel.StrongModel{
		Model:       PaperNodeRates().Model(netsim.Gordon(), cfg.PointsPerNode, cfg.Beta, cfg.B),
		TotalPoints: totalPoints,
	}
	for _, n := range []int{8, 32, 128, 512, 2048, 8192} {
		perNode := totalPoints / int64(n)
		soiBytes := int64(float64(perNode*16) * (1 + cfg.Beta))
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%d", perNode),
			fmt.Sprintf("%.2fx", m.SpeedupStrong(n)),
			fmt.Sprintf("%.1f", (3*m.Fabric.AlltoallTime(n, perNode*16)).Seconds()*1000),
			fmt.Sprintf("%.1f", m.Fabric.AlltoallTime(n, soiBytes).Seconds()*1000),
		)
	}
	t.Notes = append(t.Notes,
		"beyond the paper (weak scaling only): in the latency tail SOI's edge is the exchange count 3, not 3/(1+beta)")
	return t
}

// ModernNodeRates approximates a current dual-socket HPC node: ~10 TF
// peak double precision, FFT at ~5% of peak (memory-bound), the regular
// SOI convolution at ~20%.
func ModernNodeRates() Calibration {
	const peak = 10e12
	return Calibration{FFTFlopsPerSec: 0.05 * peak, ConvFlopsPerSec: 0.20 * peak}
}

// ModernFabric reruns the weak-scaling comparison on a dragonfly
// (Slingshot-class) model, twice: with the paper's 2012 node rates and
// with modern node rates. The pairing matters — faster links alone
// erase SOI's advantage (compute dominates, and SOI pays ~2× compute),
// but compute grew faster than network bandwidth, so the self-consistent
// modern configuration restores the communication bottleneck and with it
// SOI's win.
func ModernFabric(cfg Config) *Table {
	fabric := netsim.Slingshot()
	t := &Table{
		Title: "Extension: weak scaling on a modern dragonfly fabric",
		Header: []string{"nodes", "node era", "SOI GF", "3xA2A GF", "speedup",
			"comm share"},
	}
	for _, era := range []struct {
		name string
		cal  Calibration
	}{
		{"2012 (330GF)", PaperNodeRates()},
		{"modern (10TF)", ModernNodeRates()},
	} {
		m := era.cal.Model(fabric, cfg.PointsPerNode, cfg.Beta, cfg.B)
		for _, n := range []int{8, 64} {
			commShare := float64(3*m.Tmpi(n)) / float64(m.TStandard(n))
			t.AddRow(
				fmt.Sprintf("%d", n),
				era.name,
				fmt.Sprintf("%.1f", gflops(cfg.PointsPerNode, n, m.TSOI(n))),
				fmt.Sprintf("%.1f", gflops(cfg.PointsPerNode, n, m.TStandard(n))),
				fmt.Sprintf("%.2fx", m.Speedup(n)),
				fmt.Sprintf("%.0f%%", 100*commShare),
			)
		}
	}
	t.Notes = append(t.Notes,
		"beyond the paper: faster links alone would erase SOI's edge (compute-bound), but nodes sped up more than networks — the communication bottleneck, and SOI's advantage, returns")
	return t
}
