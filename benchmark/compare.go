package main

import (
	"fmt"
	"io"
	"math"
)

// verdict is how one (metric, workload) pair of a new result stands
// against the base.
type verdict string

const (
	verdictBetter     verdict = "better"
	verdictWorse      verdict = "worse"
	verdictWithin     verdict = "within-bound"
	verdictUnresolved verdict = "unresolved" // run-to-run spread wider than the bound
)

// row is one line of a comparison.
type row struct {
	metric, workload string
	unit             string
	base, cand       float64
	change           float64 // in the metric's worse direction; relative, or absolute for abs bounds
	spread           float64 // widest (max−min) over the sets of either side, same scale as change
	bound            float64
	verdict          verdict
}

// judge applies a metric's bound. change and spread are relative to the
// base median unless the bound is absolute. A spread wider than the
// bound means the runs cannot tell a regression of that size from noise.
func judge(d metricDef, base, cand, spreadAbs float64) row {
	r := row{metric: d.name, unit: d.unit, base: base, cand: cand, bound: d.bound}
	worse := cand - base
	if d.higher {
		worse = base - cand
	}
	scale := 1.0
	if !d.abs {
		scale = math.Abs(base)
	}
	if scale == 0 {
		scale = 1
	}
	r.change, r.spread = worse/scale, spreadAbs/scale
	switch {
	case r.spread > d.bound:
		r.verdict = verdictUnresolved
	case r.change > d.bound:
		r.verdict = verdictWorse
	case r.change < -d.bound:
		r.verdict = verdictBetter
	default:
		r.verdict = verdictWithin
	}
	return r
}

// gather collects a metric's value in every set of a document that ran
// the workload.
func gather(sets []setDoc, workload, metric string) []float64 {
	var out []float64
	for _, s := range sets {
		if v, ok := s.lookup(workload, metric); ok {
			out = append(out, v)
		}
	}
	return out
}

func spreadOf(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	return s[len(s)-1] - s[0]
}

// compareDocs judges every end-to-end metric of every workload both
// documents ran: medians over each side's sets, spread from whichever
// side has several sets.
func compareDocs(base, cand []setDoc) []row {
	var rows []row
	for _, w := range allWorkloads() {
		for _, d := range endToEnd {
			b, c := gather(base, w.name, d.name), gather(cand, w.name, d.name)
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			r := judge(d, median(b), median(c), math.Max(spreadOf(b), spreadOf(c)))
			r.workload = w.name
			rows = append(rows, r)
		}
	}
	return rows
}

func countVerdict(rows []row, v verdict) int {
	n := 0
	for _, r := range rows {
		if r.verdict == v {
			n++
		}
	}
	return n
}

func printRows(w io.Writer, rows []row) {
	fmt.Fprintf(w, "\n%-26s %-22s %14s %14s %9s %9s %7s  %s\n", "metric", "workload", "base", "new", "worse by", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %-22s %14.6f %14.6f %+9.4f %9.4f %7.4f  %s\n",
			r.metric, r.workload, r.base, r.cand, r.change, r.spread, r.bound, r.verdict)
	}
}

// compareFiles prints one row per (metric, workload) of two result
// documents and exits 1 if any metric is worse beyond its bound.
func compareFiles(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readDocument(basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cand, err := readDocument(candPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	rows := compareDocs(base.Sets, cand.Sets)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "the two documents share no workload")
		return 2
	}
	printRows(stdout, rows)
	fmt.Fprintf(stdout, "\n%d better, %d worse, %d within-bound, %d unresolved (spread over the sets of a document; one set per side shows none)\n",
		countVerdict(rows, verdictBetter), countVerdict(rows, verdictWorse),
		countVerdict(rows, verdictWithin), countVerdict(rows, verdictUnresolved))
	if countVerdict(rows, verdictWorse) > 0 {
		return 1
	}
	return 0
}
