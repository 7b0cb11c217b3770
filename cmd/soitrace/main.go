// Command soitrace post-processes Perfetto trace files written by the
// tracing layer (soinode -trace-out, soifft -trace, soiserve's
// /debug/flight).
//
//	soitrace merge -o merged.json rank0.json rank1.json rank2.json
//
// stitches per-process files into one timeline: each rank's events keep
// their track, and clocks are re-based on the sync instant every rank
// emits right after the start-of-run barrier, so spans line up even
// though the processes sampled different monotonic clocks. Open the
// result in https://ui.perfetto.dev.
//
//	soitrace summary merged.json
//
// prints the per-stage critical-path table instead: for every span
// name, the summed wall time of the slowest rank, which rank that is,
// and the span's share of the straggler-bounded critical path —
// followed by any explainer findings mirrored into the trace. With
// -json the digest is emitted as a JSON document for scripts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"soifft"
)

func main() {
	sub := ""
	if len(os.Args) >= 2 {
		sub = os.Args[1]
	}
	switch sub {
	case "merge":
		merge(os.Args[2:])
	case "summary", "-summary", "--summary":
		summary(os.Args[2:])
	default:
		fmt.Fprintln(os.Stderr, "usage: soitrace merge [-o out.json] trace1.json trace2.json ...")
		fmt.Fprintln(os.Stderr, "       soitrace summary [-json] trace.json")
		os.Exit(2)
	}
}

func merge(args []string) {
	fs := flag.NewFlagSet("soitrace merge", flag.ExitOnError)
	out := fs.String("o", "", "output file (default stdout)")
	_ = fs.Parse(args)
	paths := fs.Args()
	if len(paths) == 0 {
		fail(fmt.Errorf("no input traces given"))
	}

	inputs := make([]io.Reader, 0, len(paths))
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		inputs = append(inputs, f)
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
		w = f
	}
	if err := soifft.MergeTraces(w, inputs...); err != nil {
		fail(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "merged %d trace(s) into %s\n", len(paths), *out)
	}
}

func summary(args []string) {
	fs := flag.NewFlagSet("soitrace summary", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the digest as JSON instead of a table")
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fail(fmt.Errorf("summary takes exactly one (merged) trace file"))
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fail(err)
	}
	defer f.Close()
	s, err := soifft.SummarizeTrace(f)
	if err != nil {
		fail(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(s); err != nil {
			fail(err)
		}
		return
	}
	s.WriteTable(os.Stdout)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "soitrace:", err)
	os.Exit(1)
}
