// Command windesign explores the SOI window design space: given a tap
// budget B and oversampling β it reports the best two-parameter (τ,σ)
// window, its condition number κ, aliasing and truncation errors, and
// the predicted digits of accuracy (paper Section 4). With -table it
// prints internal/window/design_table.go, the search's winners that
// window.Design looks up before it searches.
//
// Usage:
//
//	windesign [-b 72] [-beta 0.25] [-kappa-max 1000] [-sweep] [-gaussian | -compact]
//	windesign -table > internal/window/design_table.go
package main

import (
	"flag"
	"fmt"
	"os"

	"soifft/internal/window"
)

func main() {
	b := flag.Int("b", 72, "convolution taps")
	beta := flag.Float64("beta", 0.25, "oversampling fraction")
	kmax := flag.Float64("kappa-max", 1e3, "condition number bound")
	sweep := flag.Bool("sweep", false, "sweep B from 16 to 96 and print the accuracy ladder")
	gaussian := flag.Bool("gaussian", false, "design the one-parameter gaussian window instead")
	compact := flag.Bool("compact", false, "use the compactly supported bump window (zero aliasing)")
	table := flag.Bool("table", false, "print the generated window table (internal/window/design_table.go)")
	flag.Parse()

	if *table {
		if err := window.WriteTable(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "windesign:", err)
			os.Exit(1)
		}
		return
	}

	if *sweep {
		fmt.Printf("%-5s %-34s %8s %10s %10s %8s\n", "B", "window", "kappa", "eps_alias", "eps_trunc", "digits")
		for bb := 16; bb <= 96; bb += 8 {
			d := window.Design(bb, *beta, *kmax)
			m := d.Metrics
			fmt.Printf("%-5d %-34s %8.2f %10.2e %10.2e %8.1f\n",
				bb, d.Window.String(), m.Kappa, m.EpsAlias, m.EpsTrunc, m.Digits())
		}
		return
	}
	var d window.DesignResult
	switch {
	case *compact:
		w, err := window.NewCompactBump(*beta, float64(*b)/2+8)
		if err != nil {
			fmt.Fprintln(os.Stderr, "windesign:", err)
			os.Exit(1)
		}
		d = window.DesignResult{Window: w, Metrics: window.Analyze(w, *beta, *b), B: *b, Beta: *beta}
	case *gaussian:
		d = window.DesignGaussian(*b, *beta)
	default:
		d = window.Design(*b, *beta, *kmax)
	}
	fmt.Println(d)
}
