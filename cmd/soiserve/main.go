// Command soiserve runs the SOI FFT service and its client verb.
//
//	soiserve serve -addr 127.0.0.1:7080 -metrics-addr 127.0.0.1:7081 \
//	    -cache 32 -max-batch 8 -linger 2ms
//
// starts a long-running server: transform requests over TCP resolve
// through an LRU plan cache, same-plan requests coalesce into batches on
// a bounded worker pool with backpressure, and live metrics are exported
// on the metrics address (/debug/vars, /healthz). SIGTERM/SIGINT drain
// gracefully: accepted requests finish, then the process exits 0.
//
//	soiserve query -addr 127.0.0.1:7080 -n 65536 -segments 8 -taps 72 \
//	    [-inverse] [-count 4] [-signal random|tones|chirp] [-check]
//
// sends transform requests to a running server and reports latency
// (and, with -check, accuracy against a locally computed FFT).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"soifft"
	"soifft/client"
	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/logutil"
	"soifft/internal/serve"
	sig "soifft/internal/signal"
	"soifft/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		runServe(os.Args[2:])
	case "query":
		runQuery(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: soiserve serve|query [flags]  (run with -h for flags)")
	os.Exit(2)
}

func runServe(args []string) {
	fs := flag.NewFlagSet("soiserve serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7080", "TCP listen address for transform requests")
	metricsAddr := fs.String("metrics-addr", "127.0.0.1:7081", "HTTP listen address for /debug/vars and /healthz (empty = disabled)")
	cache := fs.Int("cache", 32, "plan cache capacity")
	workers := fs.Int("workers", 0, "transform worker goroutines (0 = GOMAXPROCS)")
	maxBatch := fs.Int("max-batch", 8, "max same-plan requests per batch")
	linger := fs.Duration("linger", 2*time.Millisecond, "max wait for a batch to fill")
	queue := fs.Int("queue", 256, "max queued requests before backpressure rejection")
	maxN := fs.Int("max-n", 1<<22, "largest accepted transform length")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful drain budget on SIGTERM")
	idleTimeout := fs.Duration("idle-timeout", 5*time.Minute, "disconnect clients idle longer than this (0 = never)")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "disconnect clients that stall reading a response (0 = never)")
	instrument := fs.String("instrument", "off", "per-plan pipeline instrumentation: off|counters|timers (exported on /metrics)")
	logLevel := fs.String("log-level", "info", "log verbosity: debug|info|warn|error")
	logFormat := fs.String("log-format", "text", "log encoding: text|json")
	traceOn := fs.Bool("trace", false, "record per-request timelines into the in-memory flight ring (export on /debug/flight)")
	flightDir := fs.String("flight-dir", "", "dump the flight ring to Perfetto JSON files here on typed faults (implies -trace)")
	_ = fs.Parse(args)

	level, err := parseInstrument(*instrument)
	if err != nil {
		fail(err)
	}
	logger, err := logutil.New(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fail(err)
	}
	var tracer *trace.Tracer
	if *traceOn || *flightDir != "" {
		tracer = trace.New(0)
	}

	s := serve.New(serve.Config{
		Addr: *addr, CacheCapacity: *cache, Workers: *workers,
		MaxBatch: *maxBatch, MaxLinger: *linger, QueueDepth: *queue,
		MaxN: *maxN, IdleTimeout: *idleTimeout, WriteTimeout: *writeTimeout,
		Instrument: level,
		Logger:     logger,
		Tracer:     tracer,
		FlightDir:  *flightDir,
	})

	if err := s.Listen(); err != nil {
		fail(err)
	}
	logger.Info("listening", "addr", s.Addr().String(), "tracing", tracer.Enabled(), "convolve_kernel", core.ConvolveKernel(), "fft_kernel", fft.Kernel())

	if *metricsAddr != "" {
		ms := &http.Server{Addr: *metricsAddr, Handler: s.Metrics().Handler()}
		go func() {
			if err := ms.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				logger.Error("metrics listener failed", "err", err)
			}
		}()
		defer ms.Close()
		logger.Info("metrics serving", "addr", *metricsAddr,
			"endpoints", "/debug/vars /metrics /debug/flight /debug/pprof/")
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	select {
	case err := <-serveDone:
		if err != nil {
			fail(err)
		}
	case got := <-sigCh:
		logger.Info("draining", "signal", got.String())
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			fail(fmt.Errorf("drain: %w", err))
		}
		if err := <-serveDone; err != nil {
			fail(err)
		}
		logger.Info("drained, exiting")
	}
}

func runQuery(args []string) {
	fs := flag.NewFlagSet("soiserve query", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:7080", "server address")
	n := fs.Int("n", 1<<16, "transform length")
	segments := fs.Int("segments", 0, "SOI segments P (0 = server default)")
	taps := fs.Int("taps", 0, "convolution taps B (0 = server default)")
	accuracy := fs.Int("accuracy", -1, "accuracy rung 0-4 (overrides -taps; -1 = off)")
	inverse := fs.Bool("inverse", false, "compute the inverse transform")
	count := fs.Int("count", 1, "number of requests to send")
	sigName := fs.String("signal", "random", "generated input: random|tones|chirp")
	check := fs.Bool("check", false, "verify answers against a locally computed FFT")
	timeout := fs.Duration("timeout", time.Minute, "per-request deadline; a stalled server fails the request instead of hanging the caller (0 = wait forever)")
	_ = fs.Parse(args)

	dialCtx, dialCancel := context.WithTimeout(context.Background(), 10*time.Second)
	c, err := client.DialContext(dialCtx, *addr)
	dialCancel()
	if err != nil {
		fail(err)
	}
	defer c.Close()
	c.SetRequestTimeout(*timeout)

	opt := &client.Options{Segments: *segments, Taps: *taps}
	if *accuracy >= 0 {
		opt.Accuracy = soifft.Accuracy(*accuracy)
		opt.UseAccuracy = true
	}
	src, err := makeSignal(*sigName, *n)
	if err != nil {
		fail(err)
	}
	var ref []complex128
	if *check {
		if *inverse {
			ref, err = soifft.IFFT(src)
		} else {
			ref, err = soifft.FFT(src)
		}
		if err != nil {
			fail(err)
		}
	}

	ctx := context.Background()
	var total time.Duration
	for i := 0; i < *count; i++ {
		start := time.Now()
		var got []complex128
		if *inverse {
			got, err = c.Inverse(src, opt)
		} else {
			got, err = c.TransformRetry(ctx, src, opt, 5)
		}
		if err != nil {
			fail(err)
		}
		d := time.Since(start)
		total += d
		line := fmt.Sprintf("request %d: %d points in %v", i+1, len(got), d)
		if *check {
			line += fmt.Sprintf(" (rel err %.3e, SNR %.0f dB)", sig.RelErrL2(got, ref), sig.SNRdB(got, ref))
		}
		fmt.Println(line)
	}
	if *count > 1 {
		fmt.Printf("mean latency %v over %d requests\n", total/time.Duration(*count), *count)
	}
}

func makeSignal(name string, n int) ([]complex128, error) {
	switch name {
	case "random":
		return sig.Random(n, 1), nil
	case "tones":
		return sig.Tones(n, []int{3, n / 3, n - 7}, []complex128{1, 0.5i, 0.25}), nil
	case "chirp":
		return sig.Chirp(n, 0, float64(n)/2), nil
	default:
		return nil, fmt.Errorf("unknown signal %q", name)
	}
}

func parseInstrument(s string) (soifft.InstrumentLevel, error) {
	switch s {
	case "off":
		return soifft.InstrumentOff, nil
	case "counters":
		return soifft.InstrumentCounters, nil
	case "timers":
		return soifft.InstrumentTimers, nil
	default:
		return soifft.InstrumentOff, fmt.Errorf("unknown -instrument level %q (want off, counters or timers)", s)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "soiserve:", err)
	os.Exit(1)
}
