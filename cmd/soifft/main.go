// Command soifft transforms data with the SOI algorithm and reports
// accuracy against the conventional FFT — a smoke-test and utility CLI
// for the library.
//
// Usage:
//
//	soifft [-n 65536] [-segments 8] [-taps 72] [-ranks 0] [-inverse]
//	       [-signal random|tones|chirp] [-in data.c128] [-out result.c128]
//
// Input/output files hold raw little-endian complex128 values (pairs of
// float64). With -ranks R > 0 the transform runs distributed over R
// simulated ranks and reports the communication profile (the single
// all-to-all).
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"soifft"
	"soifft/internal/signal"
)

func main() {
	n := flag.Int("n", 1<<16, "transform length (ignored when -in is set)")
	segments := flag.Int("segments", 8, "SOI segments P")
	taps := flag.Int("taps", 72, "convolution taps B")
	ranks := flag.Int("ranks", 0, "run distributed over this many simulated ranks (0 = shared memory)")
	inverse := flag.Bool("inverse", false, "compute the inverse transform")
	sig := flag.String("signal", "random", "generated input: random|tones|chirp")
	inFile := flag.String("in", "", "read input from a raw complex128 file")
	outFile := flag.String("out", "", "write the transform to a raw complex128 file")
	report := flag.Bool("report", false, "arm stage timers and print the plan's observability report after the transform")
	traceOut := flag.String("trace", "", "write a Perfetto trace JSON of the transform's pipeline stages here (open in ui.perfetto.dev)")
	flag.Parse()

	src, err := loadInput(*inFile, *n, *sig)
	if err != nil {
		fail(err)
	}

	plan, err := soifft.NewPlan(len(src), soifft.WithSegments(*segments), soifft.WithTaps(*taps))
	if err != nil {
		fail(err)
	}
	if *report {
		plan.Instrument(soifft.InstrumentTimers)
	}
	fmt.Printf("SOI plan: N=%d P=%d B=%d beta=%.3g predicted digits=%.1f\n",
		plan.N(), plan.Segments(), plan.Taps(), plan.Oversampling(), plan.PredictedDigits())

	ctx := context.Background()
	var tracer *soifft.Tracer
	if *traceOut != "" {
		tracer = soifft.NewTracer(0)
		ctx = soifft.WithTracer(soifft.WithTraceID(ctx, soifft.NewTraceID()), tracer)
	}

	got := make([]complex128, len(src))
	var st soifft.CommStats
	start := time.Now()
	switch {
	case *ranks > 0:
		w, err := soifft.NewWorld(*ranks)
		if err != nil {
			fail(err)
		}
		if *inverse {
			err = plan.InverseDistributedContext(ctx, w, got, src)
		} else {
			err = plan.TransformDistributedContext(ctx, w, got, src)
		}
		if err != nil {
			fail(err)
		}
		st = w.Stats()
		fmt.Printf("distributed over %d ranks in %v\n", *ranks, time.Since(start))
		fmt.Printf("communication: %d all-to-all(s), %.2f MB exchanged, %d messages, %.2f MB total wire\n",
			st.Alltoalls, float64(st.AlltoallBytes)/1e6, st.Messages, float64(st.Bytes)/1e6)
	case *inverse:
		if err := plan.InverseContext(ctx, got, src); err != nil {
			fail(err)
		}
		fmt.Printf("shared-memory inverse in %v\n", time.Since(start))
	default:
		if err := plan.TransformContext(ctx, got, src); err != nil {
			fail(err)
		}
		fmt.Printf("shared-memory transform in %v\n", time.Since(start))
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		werr := tracer.WritePerfetto(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fail(werr)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}

	var ref []complex128
	if *inverse {
		ref, err = soifft.IFFT(src)
	} else {
		ref, err = soifft.FFT(src)
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("accuracy vs conventional FFT: rel err %.3e, SNR %.0f dB\n",
		signal.RelErrL2(got, ref), signal.SNRdB(got, ref))

	if *report {
		fmt.Print(plan.Report())
		if *ranks > 0 {
			// The paper's claim on live counters: one all-to-all of
			// (1+beta)N points against three of N.
			r, beta := int64(*ranks), plan.Oversampling()
			nPrime := int64(math.Round((1 + beta) * float64(plan.N())))
			triple := 3 * 16 * int64(plan.N()) * (r - 1) / r
			fmt.Printf("all-to-all: %d bytes measured; analytic 16(1+beta)N(R-1)/R = %d bytes\n",
				st.AlltoallBytes, 16*nPrime*(r-1)/r)
			fmt.Printf("vs triple-all-to-all baseline (%d bytes): ratio %.3f, paper predicts 3/(1+beta) = %.3f\n",
				triple, float64(triple)/float64(st.AlltoallBytes), 3/(1+beta))
		}
	}

	if *outFile != "" {
		if err := writeComplexFile(*outFile, got); err != nil {
			fail(err)
		}
		fmt.Printf("result written to %s\n", *outFile)
	}
}

func loadInput(path string, n int, sig string) ([]complex128, error) {
	if path != "" {
		return readComplexFile(path)
	}
	switch sig {
	case "random":
		return signal.Random(n, 1), nil
	case "tones":
		return signal.Tones(n, []int{3, n / 3, n - 7}, []complex128{1, 0.5i, 0.25}), nil
	case "chirp":
		return signal.Chirp(n, 0, float64(n)/2), nil
	default:
		return nil, fmt.Errorf("unknown signal %q", sig)
	}
}

func readComplexFile(path string) ([]complex128, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw)%16 != 0 {
		return nil, fmt.Errorf("%s: size %d is not a multiple of 16 (complex128)", path, len(raw))
	}
	out := make([]complex128, len(raw)/16)
	for i := range out {
		re := math.Float64frombits(binary.LittleEndian.Uint64(raw[i*16:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(raw[i*16+8:]))
		out[i] = complex(re, im)
	}
	return out, nil
}

func writeComplexFile(path string, data []complex128) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf := make([]byte, 16)
	for _, v := range data {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(v)))
		if _, err := f.Write(buf); err != nil {
			return err
		}
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "soifft:", err)
	os.Exit(1)
}
