package main

import (
	"fmt"
	"io"
)

func printEnvironment(w io.Writer, e environment) {
	fmt.Fprintf(w, "%s  seed %d\n", schema, e.Seed)
	fmt.Fprintf(w, "environment: %s %s/%s, nproc %d, GOMAXPROCS %d, cpu %q, LLC %.0f MB, commit %s\n",
		e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.CPUModel, float64(e.LLCBytes)/1e6, e.GitCommit)
	fmt.Fprintf(w, "plans: mu/nu = %d/%d, P = %d, B = %d; %d ranks x Workers:1; mesh links %.0f MB/s\n",
		planMu, planNu, planP, planB, ranks, linkBandwidthBps/1e6)
}

func printWorkload(w io.Writer, wl workload, wd workloadDoc) {
	fmt.Fprintf(w, "\n== %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "   %d operations attempted, %d failed\n", wd.Attempted, wd.Failed)
	fmt.Fprintln(w, "   end to end (untraced pass):")
	printValues(w, wd.EndToEnd)
	fmt.Fprintln(w, "   per layer (traced pass):")
	printValues(w, wd.PerLayer)
	for _, n := range wd.Notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
}

func printValues(w io.Writer, vs []value) {
	for _, v := range vs {
		fmt.Fprintf(w, "     %-34s %16.6f %-6s n=%d\n", v.Name, float64(v.Value), v.Unit, v.N)
	}
}

// lookup finds a workload's metric in a set (ok false when the workload
// or the metric was not run).
func (s setDoc) lookup(workload, metric string) (float64, bool) {
	for _, wd := range s.Workloads {
		if wd.Name != workload {
			continue
		}
		for _, vs := range [][]value{wd.EndToEnd, wd.PerLayer} {
			for _, v := range vs {
				if v.Name == metric {
					return float64(v.Value), true
				}
			}
		}
	}
	return 0, false
}

// printStructure prints the relations between workloads that make the
// benchmark discriminate: which rows a kernel, a driver or a transport
// change can move. A relation is printed only when both of its workloads
// ran.
func printStructure(w io.Writer, s setDoc) {
	type relation struct {
		text string
		ok   func() (holds bool, detail string, ran bool)
	}
	get := s.lookup
	share := func(workload string, parts ...string) (float64, bool) {
		wall, ok := get(workload, "wall_ms_p50")
		if !ok {
			return 0, false
		}
		var sum float64
		for _, p := range parts {
			v, ok := get(workload, p)
			if !ok {
				return 0, false
			}
			sum += v
		}
		return sum / wall, true
	}
	rels := []relation{
		{"streaming hides wire time: wall_ms_p50(cluster_wire_streamed) < wall_ms_p50(cluster_wire_blocking)", func() (bool, string, bool) {
			a, ok1 := get(wWireStreamed, "wall_ms_p50")
			b, ok2 := get(wWireBlocking, "wall_ms_p50")
			return a < b, fmt.Sprintf("%.2f vs %.2f ms", a, b), ok1 && ok2
		}},
		{"node_shm is kernel-bound: the four core.shm_*_ms phases are >= 80% of its wall", func() (bool, string, bool) {
			f, ok := share(wNodeShm, "core.shm_convolve_ms", "core.shm_transpose_ms", "core.shm_segment_ms", "core.shm_demod_ms")
			return f >= 0.8, fmt.Sprintf("%.0f%%", 100*f), ok
		}},
		{"cluster_wire_blocking is wire-bound: core.dist_convolve_ms + core.dist_segment_ms are <= 40% of its wall", func() (bool, string, bool) {
			f, ok := share(wWireBlocking, "core.dist_convolve_ms", "core.dist_segment_ms")
			return f <= 0.4, fmt.Sprintf("%.0f%%", 100*f), ok
		}},
		{"on the throttled mesh one all-to-all beats three: baseline.speedup_vs_3x > 1", func() (bool, string, bool) {
			v, ok := get(wWireBlocking, "baseline.speedup_vs_3x")
			return v > 1, fmt.Sprintf("%.2fx of a ceiling of %.1fx", v, 3*float64(planNu)/float64(planMu)), ok
		}},
		{"on a free wire SOI loses: baseline.sixstep_ms < wall_ms_p50(cluster_inproc)", func() (bool, string, bool) {
			a, ok1 := get(wInproc, "baseline.sixstep_ms")
			b, ok2 := get(wInproc, "wall_ms_p50")
			return a < b, fmt.Sprintf("%.2f vs %.2f ms", a, b), ok1 && ok2
		}},
	}
	header := false
	for _, r := range rels {
		holds, detail, ran := r.ok()
		if !ran {
			continue
		}
		if !header {
			fmt.Fprintln(w, "\n== structure (which rows a change to one layer can move)")
			header = true
		}
		mark := "holds"
		if !holds {
			mark = "DOES NOT HOLD"
		}
		fmt.Fprintf(w, "   %-13s %s: %s\n", mark, r.text, detail)
	}
}
