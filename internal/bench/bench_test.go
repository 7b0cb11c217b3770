package bench

import (
	"fmt"
	"strings"
	"testing"

	"soifft/internal/baseline"
	"soifft/internal/netsim"
)

// testConfig is the paper's scale: the shape assertions below are about
// the published figures, which assume the paper's compute/communication
// balance.
func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		PointsPerNode: 1 << 28,
		Beta:          0.25,
		B:             72,
		Nodes:         []int{1, 2, 4, 8, 16, 32, 64},
	}
}

func tableText(t *testing.T, tb *Table) string {
	t.Helper()
	var sb strings.Builder
	tb.Fprint(&sb)
	return sb.String()
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	cfg := testConfig(t)
	tb := Fig5(cfg)
	if len(tb.Rows) != len(cfg.Nodes) {
		t.Fatalf("rows %d, want %d", len(tb.Rows), len(cfg.Nodes))
	}
	// The paper's qualitative shape: SOI ahead of the triple-all-to-all
	// class at every multi-node point, with the margin growing at 64.
	m := PaperNodeRates().Model(netsim.Endeavor(), cfg.PointsPerNode, cfg.Beta, cfg.B)
	s8, s64 := m.Speedup(8), m.Speedup(64)
	if s8 <= 1.0 {
		t.Errorf("speedup at 8 nodes %.2f, want > 1", s8)
	}
	if s64 <= s8 {
		t.Errorf("speedup should grow with nodes: 8→%.2f, 64→%.2f", s8, s64)
	}
	if s64 < 1.3 || s64 > 2.4 {
		t.Errorf("speedup at 64 nodes %.2f outside the paper's plausible band", s64)
	}
	out := tableText(t, tb)
	if !strings.Contains(out, "Fig 5") || !strings.Contains(out, "speedup") {
		t.Error("table missing title or speedup column")
	}
}

func TestFig6GordonBeatsEndeavorAtScale(t *testing.T) {
	cfg := testConfig(t)
	mE := PaperNodeRates().Model(netsim.Endeavor(), cfg.PointsPerNode, cfg.Beta, cfg.B)
	mG := PaperNodeRates().Model(netsim.Gordon(), cfg.PointsPerNode, cfg.Beta, cfg.B)
	// Paper: additional gain on Gordon from 32 nodes onwards.
	if mG.Speedup(64) <= mE.Speedup(64)*0.98 {
		t.Errorf("Gordon speedup %.2f should be at least Endeavor's %.2f at 64 nodes",
			mG.Speedup(64), mE.Speedup(64))
	}
	if Fig6(cfg) == nil {
		t.Fatal("Fig6 returned nil")
	}
}

func TestFig8NearTheoreticalBound(t *testing.T) {
	cfg := testConfig(t)
	m := PaperNodeRates().Model(netsim.TenGigE(), cfg.PointsPerNode, cfg.Beta, cfg.B)
	for _, n := range []int{8, 16, 32, 64} {
		s := m.Speedup(n)
		if s < 2.2 || s > 2.41 {
			t.Errorf("10GbE speedup at %d nodes = %.3f, paper observed [2.3, 2.4]", n, s)
		}
	}
	if Fig8(cfg) == nil {
		t.Fatal("Fig8 returned nil")
	}
}

func TestFig7LadderMonotone(t *testing.T) {
	cfg := testConfig(t)
	tb, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) < 4 {
		t.Fatalf("expected at least 4 accuracy rungs, got %d", len(tb.Rows))
	}
	// Speedup must not decrease as accuracy is relaxed (B shrinks).
	prev := 0.0
	for _, row := range tb.Rows {
		var s float64
		if _, err := sscanSpeedup(row[len(row)-1], &s); err != nil {
			t.Fatalf("bad speedup cell %q", row[len(row)-1])
		}
		if s+1e-9 < prev {
			t.Errorf("speedup fell while relaxing accuracy: %v", row)
		}
		prev = s
	}
}

func sscanSpeedup(cell string, out *float64) (int, error) {
	return fmtSscanf(cell, "%fx", out)
}

func TestFig9ProjectionTable(t *testing.T) {
	cfg := testConfig(t)
	tb := Fig9(cfg)
	if len(tb.Rows) != 9 { // k = 2..10
		t.Fatalf("rows %d, want 9", len(tb.Rows))
	}
	out := tableText(t, tb)
	if !strings.Contains(out, "16000") {
		t.Error("projection should reach 16000 nodes (k=10)")
	}
}

func TestTable1(t *testing.T) {
	tb := Table1()
	out := tableText(t, tb)
	for _, want := range []string{"fat tree", "torus", "10GbE", "330"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestSNRTableGap(t *testing.T) {
	cfg := testConfig(t)
	tb, err := SNRTable(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: SOI full accuracy is ~20 dB (one digit) below conventional.
	for _, row := range tb.Rows {
		var gap float64
		if _, err := fmtSscanf(row[3], "%f", &gap); err != nil {
			t.Fatalf("bad gap cell %q", row[3])
		}
		if gap < -5 || gap > 80 {
			t.Errorf("N=%s: SNR gap %.0f dB implausible (paper ~20)", row[0], gap)
		}
	}
}

func TestMeasuredWeakScalingRuns(t *testing.T) {
	tb, err := MeasuredWeakScaling(1<<12, []int{1, 2, 4}, 48)
	if err != nil {
		t.Fatal(err)
	}
	// 4 algorithms × 3 rank counts.
	if len(tb.Rows) != 12 {
		t.Fatalf("rows %d, want 12", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		alg, a2a := row[2], row[3]
		switch alg {
		case "SOI":
			if a2a != "1" {
				t.Errorf("SOI performed %s all-to-alls, want 1", a2a)
			}
		case "sixstep", "sixstep-tall":
			if a2a != "3" {
				t.Errorf("%s performed %s all-to-alls, want 3", alg, a2a)
			}
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := testConfig(t)
	if tb := AblateBeta(cfg); len(tb.Rows) != 4 {
		t.Errorf("beta ablation rows: %d", len(tb.Rows))
	}
	tb, err := AblateWindow(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 9 {
		t.Errorf("window ablation rows: %d", len(tb.Rows))
	}
	tb, err = AblateSegments(1<<12, 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 {
		t.Errorf("segments ablation rows: %d", len(tb.Rows))
	}
	tb, err = AblateOpcount(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Errorf("opcount ablation rows: %d", len(tb.Rows))
	}
}

func TestRunBaselineMeasuredError(t *testing.T) {
	// Binary exchange on 3 ranks must surface its shape error.
	if _, err := RunBaselineMeasured(baseline.BinaryExchange{}, 3*64, 3, 1); err == nil {
		t.Error("expected shape error")
	}
}

// fmtSscanf avoids importing fmt at top level twice in examples; thin
// wrapper for cell parsing.
func fmtSscanf(s, format string, args ...any) (int, error) {
	return fmt.Sscanf(s, format, args...)
}

func TestAppConvolutionLadder(t *testing.T) {
	cfg := testConfig(t)
	tb, err := AppConvolution(cfg, 4096, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows %d, want 3", len(tb.Rows))
	}
	if _, err := AppConvolution(cfg, 4096, 0); err == nil {
		t.Error("a world of 0 ranks: want the world's error")
	}
	wantA2A := []string{"2", "4", "6"}
	for i, row := range tb.Rows {
		if row[1] != wantA2A[i] {
			t.Errorf("row %d: %s all-to-alls, want %s", i, row[1], wantA2A[i])
		}
		var e float64
		if _, err := fmtSscanf(row[2], "%e", &e); err != nil || e > 1e-8 {
			t.Errorf("row %d: rel err %s", i, row[2])
		}
	}
}

func TestAblateWorkersAndScaling(t *testing.T) {
	tb, err := AblateWorkers(1<<14, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Errorf("workers ablation rows: %d", len(tb.Rows))
	}
	tb, err = AblateScaling(48)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 4 {
		t.Fatalf("scaling ablation rows: %d", len(tb.Rows))
	}
	// SNR must be roughly flat across N (within 25 dB).
	var lo, hi float64 = 1e9, -1e9
	for _, row := range tb.Rows {
		var snr float64
		if _, err := fmtSscanf(row[1], "%f", &snr); err != nil {
			t.Fatalf("bad SNR cell %q", row[1])
		}
		if snr < lo {
			lo = snr
		}
		if snr > hi {
			hi = snr
		}
	}
	if hi-lo > 25 {
		t.Errorf("SNR varies %0.f..%0.f dB across N; should be flat", lo, hi)
	}
}

func TestExtensions(t *testing.T) {
	cfg := testConfig(t)
	tb := StrongScaling(cfg, 1<<32)
	if len(tb.Rows) != 6 {
		t.Errorf("strong scaling rows: %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		var s float64
		if _, err := sscanSpeedup(row[2], &s); err != nil || s < 1 || s > 3 {
			t.Errorf("strong speedup %q outside (1,3)", row[2])
		}
	}
	mf := ModernFabric(cfg)
	if len(mf.Rows) != 4 {
		t.Fatalf("modern fabric rows: %d", len(mf.Rows))
	}
	// Row order: 2012@8, 2012@64, modern@8, modern@64. With 2012 compute
	// the modern fabric makes SOI lose; with modern compute it wins again.
	var old64, new64 float64
	if _, err := sscanSpeedup(mf.Rows[1][4], &old64); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanSpeedup(mf.Rows[3][4], &new64); err != nil {
		t.Fatal(err)
	}
	if old64 >= 1.1 {
		t.Errorf("2012 node on modern fabric should not show a clear SOI win, got %.2f", old64)
	}
	if new64 <= 1.2 {
		t.Errorf("modern node on modern fabric should restore the SOI win, got %.2f", new64)
	}
}

func TestAblatePrecision(t *testing.T) {
	cfg := testConfig(t)
	tb := AblatePrecision(cfg)
	if len(tb.Rows) != 4 {
		t.Fatalf("rows %d", len(tb.Rows))
	}
	var single, soi10 float64
	if _, err := sscanSpeedup(tb.Rows[1][3], &single); err != nil {
		t.Fatal(err)
	}
	if _, err := sscanSpeedup(tb.Rows[3][3], &soi10); err != nil {
		t.Fatal(err)
	}
	// Paper's argument: 10-digit SOI is at least in the same band as the
	// best-case single-precision library (≈2x), with more digits.
	if single < 1.5 || single > 2.5 {
		t.Errorf("single-precision best case %.2f outside ~2x band", single)
	}
	if soi10 < single*0.85 {
		t.Errorf("10-digit SOI (%.2f) should be comparable to single-precision best case (%.2f)", soi10, single)
	}
}
