// Command soibench regenerates every table and figure of the paper's
// evaluation (Section 7) as text tables.
//
// Usage:
//
//	soibench [-experiment all|<name>] [-points-per-node N] [-go-rates]
//	         [-csv] [-measure-points N]
//
// soibench -h lists the experiment names. Compute rates default to the
// paper's node (Table 1 hardware at the Section 7.4 efficiencies);
// -go-rates calibrates this machine's Go kernels instead. Wire times
// always come from the interconnect models in internal/netsim. Measured
// performance is benchmark/run.sh's job, not this command's.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"soifft/internal/bench"
	"soifft/internal/netsim"
)

// options is what an experiment may read: the model configuration, the
// size of the real in-process runs, and where and how tables are
// written.
type options struct {
	cfg      bench.Config
	measureN int
	csv      bool
	out      io.Writer
}

// table writes t in the selected format; it takes a generator's
// (table, error) pair so an experiment is one expression.
func (o *options) table(t *bench.Table, err error) error {
	if err != nil {
		return err
	}
	if o.csv {
		t.FprintCSV(o.out)
	} else {
		t.Fprint(o.out)
	}
	return nil
}

// experiments is the one list of experiment names: lookup, -experiment
// all (which runs them in this order) and the flag's usage string all
// derive from it.
var experiments = []struct {
	name string
	run  func(o *options) error
}{
	{"table1", func(o *options) error { return o.table(bench.Table1(), nil) }},
	{"fig5", func(o *options) error { return o.table(bench.Fig5(o.cfg), nil) }},
	{"fig6", func(o *options) error { return o.table(bench.Fig6(o.cfg), nil) }},
	{"fig7", func(o *options) error { return o.table(bench.Fig7(o.cfg)) }},
	{"fig8", func(o *options) error { return o.table(bench.Fig8(o.cfg), nil) }},
	{"fig9", func(o *options) error { return o.table(bench.Fig9(o.cfg), nil) }},
	{"snr", func(o *options) error { return o.table(bench.SNRTable(o.cfg)) }},
	{"measured", func(o *options) error { return o.table(bench.MeasuredWeakScaling(o.measureN, []int{1, 2, 4, 8}, 72)) }},
	{"app-conv", func(o *options) error { return o.table(bench.AppConvolution(o.cfg, o.measureN*4, 4)) }},
	{"timeline", func(o *options) error { bench.Timeline(o.out, o.cfg, netsim.Gordon(), 64); return nil }},
	{"strong-scaling", func(o *options) error { return o.table(bench.StrongScaling(o.cfg, o.cfg.PointsPerNode*16), nil) }},
	{"modern-fabric", func(o *options) error { return o.table(bench.ModernFabric(o.cfg), nil) }},
	{"ablate-beta", func(o *options) error { return o.table(bench.AblateBeta(o.cfg), nil) }},
	{"ablate-window", func(o *options) error { return o.table(bench.AblateWindow(o.cfg)) }},
	{"ablate-segments", func(o *options) error { return o.table(bench.AblateSegments(o.measureN, 4, 48)) }},
	{"ablate-opcount", func(o *options) error { return o.table(bench.AblateOpcount(o.cfg)) }},
	{"ablate-workers", func(o *options) error { return o.table(bench.AblateWorkers(o.measureN*4, 72)) }},
	{"ablate-scaling", func(o *options) error { return o.table(bench.AblateScaling(72)) }},
	{"ablate-precision", func(o *options) error { return o.table(bench.AblatePrecision(o.cfg), nil) }},
}

var errUnknownExperiment = errors.New("unknown experiment")

// runExperiment runs the named experiment, or every one for "all".
func runExperiment(name string, o *options) error {
	found := false
	for _, e := range experiments {
		if name != "all" && name != e.name {
			continue
		}
		found = true
		if err := e.run(o); err != nil {
			return err
		}
	}
	if !found {
		return fmt.Errorf("%w %q", errUnknownExperiment, name)
	}
	return nil
}

func main() {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	exp := flag.String("experiment", "all", "which experiment to run: all, or one of "+strings.Join(names, ", "))
	ppn := flag.Int64("points-per-node", 1<<28, "weak-scaling points per node for the models")
	goRates := flag.Bool("go-rates", false, "calibrate compute rates from this machine's Go kernels instead of the paper's node")
	asCSV := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	measureN := flag.Int("measure-points", 1<<18, "points per rank for the real in-process runs")
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.PointsPerNode = *ppn
	if *goRates {
		cal, err := bench.Calibrate(1 << 20)
		if err != nil {
			fail(err)
		}
		cfg.Cal = cal
		fmt.Printf("calibrated Go rates: FFT %.2f GF/s, conv %.2f GF/s (measured at N=%d)\n",
			cal.FFTFlopsPerSec/1e9, cal.ConvFlopsPerSec/1e9, cal.MeasureN)
	} else {
		fmt.Println("compute rates: paper node (330 GF peak; FFT 10%, conv 40% of peak, Section 7.4)")
	}
	if err := runExperiment(*exp, &options{cfg: cfg, measureN: *measureN, csv: *asCSV, out: os.Stdout}); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "soibench:", err)
	os.Exit(1)
}
