// Command benchmark is soibench/v2: one layered, seeded benchmark of the
// SOI FFT from kernel to service. Six workloads each run an untraced pass
// (the end-to-end metrics) and a traced pass (the per-layer metrics, from
// spans around the benchmark's own calls into each layer); every output
// is checked. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
)

const schema = "soibench/v2"

// maxProcs pins the scheduler: two ranks with one worker each, or two
// client connections, and never more runnable work than the two cores
// the numbers were sized on.
const maxProcs = 2

// workload is one set of inputs the benchmark runs, as two passes.
type workload struct {
	name, why string
	untraced  func(runConfig) (passResult, error)
	traced    func(runConfig) (passResult, error)
}

func transformWorkload(name, why string, mk func(sc scale) transformer) workload {
	return workload{
		name: name, why: why,
		untraced: func(rc runConfig) (passResult, error) {
			return untracedTransform(func() transformer { return mk(rc.sc) }, rc)
		},
		traced: func(rc runConfig) (passResult, error) {
			return tracedTransform(func() transformer { return mk(rc.sc) }, rc)
		},
	}
}

// allWorkloads lists the six workloads in run order. The why of each is
// the one BENCHMARK.json records.
func allWorkloads() []workload {
	return []workload{
		transformWorkload(wNodeShm,
			"kernel-bound: core.Plan.Transform at N=2^20 on one core, no transport; convolve and segment FFT are the wall",
			func(sc scale) transformer { return newNodeShm(sc.nNode) }),
		transformWorkload(wInproc,
			"distributed driver alone: RunDistributed on a fresh 2-rank in-process world, N=2^20; the wire is a memcpy",
			func(sc scale) transformer { return newCluster(wInproc, sc.nInproc) }),
		transformWorkload(wInprocCoded,
			"same with one parity share: erasure encode and the checked-send, view and agreement rounds every other workload bypasses",
			func(sc scale) transformer { return newCluster(wInprocCoded, sc.nInproc) }),
		transformWorkload(wWireBlocking,
			"the paper's regime: 2-rank loopback TCP mesh, links throttled to 32 MB/s, N=2^19, blocking exchange; wire is 1.8x compute",
			func(sc scale) transformer { return newCluster(wWireBlocking, sc.nWire) }),
		transformWorkload(wWireStreamed,
			"same mesh and input with the exchange streamed (window 2): overlap instead of block, bypassed by the blocking workload",
			func(sc scale) transformer { return newCluster(wWireStreamed, sc.nWire) }),
		{
			name:     wServiceMix,
			why:      "serving tier: 2 replicas behind the gateway, seeded Poisson 100 req/s over 2 connections, n=4096/16384 at 3:1; kernels are not the work",
			untraced: untracedService, traced: tracedService,
		},
	}
}

// workloadDoc is one workload's share of the result document.
type workloadDoc struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	EndToEnd  []value  `json:"end_to_end"`
	PerLayer  []value  `json:"per_layer"`
	Notes     []string `json:"notes"`
}

// setDoc is one run of the selected workloads.
type setDoc struct {
	Seed      int64         `json:"seed"`
	Workloads []workloadDoc `json:"workloads"`
}

// document is the machine-readable result: fixed key order, fixed
// decimals.
type document struct {
	Schema        string      `json:"schema"`
	Env           environment `json:"environment"`
	LinkBandwidth int64       `json:"link_bandwidth_bps"`
	Sets          []setDoc    `json:"sets"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs and arrival schedule")
		seconds   = fs.Float64("seconds", 15, "timed window of each workload's untraced pass")
		ops       = fs.Int("ops", 0, "time exactly this many transforms per transform workload instead of -seconds")
		only      = fs.String("workload", "", "run this workload only")
		trace     = fs.String("trace", "", "with -workload: run one pass (0 untraced, 1 traced) and end with the one-line JSON result")
		sets      = fs.Int("sets", 1, "run the selected workloads this many times into one document")
		selfcheck = fs.Bool("selfcheck", false, "run two sets and fail if an end-to-end metric disagrees beyond its bound")
		compare   = fs.Bool("compare", false, "compare two result documents: -compare base.json new.json")
		outDir    = fs.String("out", filepath.Join("benchmark", "out"), "directory for traces and the result document")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare base.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "unexpected arguments %q\n", fs.Args())
		return 2
	}

	selected := allWorkloads()
	if *only != "" {
		selected = nil
		for _, w := range allWorkloads() {
			if w.name == *only {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(stderr, "unknown workload %q\n", *only)
			return 2
		}
	}
	runtime.GOMAXPROCS(maxProcs)
	rc := runConfig{seed: *seed, seconds: *seconds, ops: *ops, sc: fullScale, outDir: *outDir}

	if *trace != "" {
		traced, err := strconv.ParseBool(*trace)
		if err != nil || *only == "" {
			fmt.Fprintln(stderr, "-trace takes 0 or 1 and needs -workload")
			return 2
		}
		return runOnePass(selected[0], traced, rc, stdout, stderr)
	}

	if *selfcheck {
		*sets = 2
	}
	doc := document{Schema: schema, Env: readEnvironment(*seed), LinkBandwidth: linkBandwidthBps}
	printEnvironment(stdout, doc.Env)
	failed := 0
	for s := 0; s < *sets; s++ {
		set := setDoc{Seed: *seed}
		for _, w := range selected {
			wd, err := runBothPasses(w, rc)
			if err != nil {
				fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
				return 1
			}
			printWorkload(stdout, w, wd)
			failed += wd.Failed
			set.Workloads = append(set.Workloads, wd)
		}
		printStructure(stdout, set)
		doc.Sets = append(doc.Sets, set)
	}

	path := filepath.Join(*outDir, "soibench.json")
	if err := writeDocument(path, doc); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "\nresult document: %s; traces: %s\n", path, filepath.Join(*outDir, "trace-<workload>.json"))
	if failed > 0 {
		fmt.Fprintf(stderr, "%d operations failed\n", failed)
		return 1
	}
	if *selfcheck {
		rows := compareDocs(doc.Sets[:1], doc.Sets[1:])
		printRows(stdout, rows)
		if n := countVerdict(rows, verdictWorse) + countVerdict(rows, verdictBetter); n > 0 {
			fmt.Fprintf(stderr, "selfcheck: %d end-to-end metrics disagree beyond their bound between two sets of the same code\n", n)
			return 1
		}
		fmt.Fprintln(stdout, "selfcheck: two sets of the same code agree within every bound")
	}
	return 0
}

// runBothPasses runs a workload's untraced and traced pass.
func runBothPasses(w workload, rc runConfig) (workloadDoc, error) {
	wd := workloadDoc{Name: w.name}
	e2e, err := w.untraced(rc)
	if err != nil {
		return wd, fmt.Errorf("untraced pass: %w", err)
	}
	layer, err := w.traced(rc)
	if err != nil {
		return wd, fmt.Errorf("traced pass: %w", err)
	}
	wd.Attempted = e2e.attempted + layer.attempted
	wd.Failed = e2e.failed + layer.failed
	wd.EndToEnd = e2e.vals.ordered(definedFor(w.name))
	wd.PerLayer = layer.vals.ordered(perLayer)
	wd.Notes = append(e2e.notes, layer.notes...)
	return wd, nil
}

// definedFor lists the end-to-end metrics defined for a workload. The
// extensions to other workloads travel only in the single-pass JSON line,
// where every workload must report every metric.
func definedFor(workload string) []metricDef {
	var out []metricDef
	for _, d := range endToEnd {
		if d.appliesTo(workload) {
			out = append(out, d)
		}
	}
	return out
}

// lineMetric is one metric of the single-pass JSON line, with every
// digit measured.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOnePass runs one pass of one workload and ends standard output with
// the JSON line {"correct","attempted","failed","metrics"}: every
// end-to-end metric after an untraced pass, every per-layer metric after
// a traced one (a layer the workload never enters reads 0).
func runOnePass(w workload, traced bool, rc runConfig, stdout, stderr io.Writer) int {
	pass, defs := w.untraced, driverEndToEnd()
	if traced {
		pass, defs = w.traced, perLayer
	}
	pr, err := pass(rc)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	shown := defs
	if !traced {
		shown = endToEnd
	}
	for _, v := range pr.vals.ordered(shown) {
		fmt.Fprintf(stdout, "%-32s %16.6f %-6s n=%d\n", v.Name, float64(v.Value), v.Unit, v.N)
	}
	for _, n := range pr.notes {
		fmt.Fprintln(stdout, n)
	}
	metrics := map[string]lineMetric{}
	for _, d := range defs {
		v, ok := pr.vals[d.name]
		if !ok && !traced {
			fmt.Fprintf(stderr, "%s: %s was not measured (too few samples)\n", w.name, d.name)
			return 1
		}
		metrics[d.name] = lineMetric{Value: float64(v.Value), Unit: d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{pr.failed == 0, pr.attempted, pr.failed, metrics})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if pr.failed > 0 {
		return 1
	}
	return 0
}

func writeDocument(path string, doc document) error {
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readDocument(path string) (document, error) {
	var doc document
	raw, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != schema {
		return doc, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, schema)
	}
	return doc, nil
}
