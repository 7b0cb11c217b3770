// Command soibench regenerates every table and figure of the paper's
// evaluation (Section 7) as markdown tables.
//
// Usage:
//
//	soibench [-experiment all|<name>] [-points-per-node N] [-measure-points N]
//
// soibench -h lists the experiment names. Compute rates are the paper's
// node (Table 1 hardware at the Section 7.4 efficiencies); wire times
// come from the interconnect models in internal/netsim. With the default
// flags every experiment but the two timed ablations (ablate-segments
// and ablate-workers) prints the same bytes on every run, and
// EXPERIMENTS.md holds that output between <!-- soibench:NAME --> and
// <!-- /soibench --> markers, which TestExperimentsFresh checks.
// Measured performance is benchmark/run.sh's job, not this command's.
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

// defaultMeasurePoints is -measure-points' default: the points per rank
// of the real in-process runs.
const defaultMeasurePoints = 1 << 18

// options is what an experiment may read: the model configuration, the
// size of the real in-process runs, and where tables are written.
type options struct {
	cfg      bench.Config
	measureN int
	out      io.Writer
}

// table writes t; it takes a generator's (table, error) pair so an
// experiment is one expression.
func (o *options) table(t *bench.Table, err error) error {
	if err != nil {
		return err
	}
	t.Fprint(o.out)
	return nil
}

// experiments is the one list of experiment names: lookup, -experiment
// all (which runs them in this order), the flag's usage string and
// TestExperimentsFresh all derive from it. A timed experiment prints
// wall times of the machine it runs on, so EXPERIMENTS.md checks in no
// copy of its output.
var experiments = []struct {
	name  string
	timed bool
	run   func(o *options) error
}{
	{"table1", false, func(o *options) error { return o.table(bench.Table1(), nil) }},
	{"fig5", false, func(o *options) error { return o.table(bench.Fig5(o.cfg), nil) }},
	{"fig6", false, func(o *options) error { return o.table(bench.Fig6(o.cfg), nil) }},
	{"fig7", false, func(o *options) error { return o.table(bench.Fig7(o.cfg)) }},
	{"fig8", false, func(o *options) error { return o.table(bench.Fig8(o.cfg), nil) }},
	{"fig9", false, func(o *options) error { return o.table(bench.Fig9(o.cfg), nil) }},
	{"snr", false, func(o *options) error { return o.table(bench.SNRTable(o.cfg)) }},
	{"measured", false, func(o *options) error { return o.table(bench.MeasuredWeakScaling(o.measureN, []int{1, 2, 4, 8}, 72)) }},
	{"app-conv", false, func(o *options) error { return o.table(bench.AppConvolution(o.cfg, o.measureN*4, 4)) }},
	{"timeline", false, func(o *options) error { bench.Timeline(o.out, o.cfg, netsim.Gordon(), 64); return nil }},
	{"strong-scaling", false, func(o *options) error { return o.table(bench.StrongScaling(o.cfg, o.cfg.PointsPerNode*16), nil) }},
	{"modern-fabric", false, func(o *options) error { return o.table(bench.ModernFabric(o.cfg), nil) }},
	{"ablate-beta", false, func(o *options) error { return o.table(bench.AblateBeta(o.cfg), nil) }},
	{"ablate-window", false, func(o *options) error { return o.table(bench.AblateWindow(o.cfg)) }},
	{"ablate-segments", true, func(o *options) error { return o.table(bench.AblateSegments(o.measureN, 4, 48)) }},
	{"ablate-opcount", false, func(o *options) error { return o.table(bench.AblateOpcount(o.cfg)) }},
	{"ablate-workers", true, func(o *options) error { return o.table(bench.AblateWorkers(o.measureN*4, 72)) }},
	{"ablate-scaling", false, func(o *options) error { return o.table(bench.AblateScaling(72)) }},
	{"ablate-precision", false, func(o *options) error { return o.table(bench.AblatePrecision(o.cfg), nil) }},
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
	cfg := bench.DefaultConfig()
	exp := flag.String("experiment", "all", "which experiment to run: all, or one of "+strings.Join(names, ", "))
	flag.Int64Var(&cfg.PointsPerNode, "points-per-node", cfg.PointsPerNode, "weak-scaling points per node for the models")
	measureN := flag.Int("measure-points", defaultMeasurePoints, "points per rank for the real in-process runs")
	flag.Parse()

	if err := runExperiment(*exp, &options{cfg: cfg, measureN: *measureN, out: os.Stdout}); err != nil {
		fmt.Fprintln(os.Stderr, "soibench:", err)
		os.Exit(1)
	}
}
