// Command soinode runs one rank of a distributed SOI transform as its
// own OS process, communicating with its peers over TCP (internal/
// mpinet). Start one process per rank, e.g. for two local ranks:
//
//	soinode -rank 0 -size 2 -listen 127.0.0.1:7000 -peers 127.0.0.1:7000,127.0.0.1:7001 &
//	soinode -rank 1 -size 2 -listen 127.0.0.1:7001 -peers 127.0.0.1:7000,127.0.0.1:7001
//
// Every rank generates the same deterministic input from -seed and works
// on its block; rank 0 gathers the distributed spectrum and reports the
// accuracy against a locally computed conventional FFT.
//
// The transport fails typed and bounded rather than hanging: -io-timeout
// arms a per-operation deadline (heartbeats keep healthy idle links
// alive), and any wire fault — peer death, corrupted frame, expired
// deadline — exits non-zero naming the failed peer and operation.
// -fault-plan injects deterministic faults (internal/faultnet) into this
// rank's links for live chaos drills, e.g.
//
//	soinode ... -io-timeout 5s -fault-plan seed=42,corrupt=0.001,latency=1ms
//
// -coded m arms the erasure-protected exchange: each rank encodes its
// all-to-all chunks into m parity shares, so the transform survives a
// rank that dies mid-exchange (after its frames flushed) — the run
// completes with the bit-exact spectrum, logs a degraded-mode warning
// naming the reconstructed rank, and exits 0. Losses beyond the parity
// budget exit non-zero with a typed error naming every dead peer.
//
// With -trace-out each rank records an event timeline of its pipeline
// stages (rank 0 mints the trace ID and broadcasts it over the wire, so
// every rank's spans share it) and writes a Perfetto JSON file on exit;
// stitch the per-rank files with `soitrace merge`. -flight-dir arms the
// flight recorder: a typed transport fault dumps the last ~64k events
// to a timestamped file there before the process exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"soifft/internal/core"
	"soifft/internal/faultnet"
	"soifft/internal/fft"
	"soifft/internal/instrument"
	"soifft/internal/logutil"
	"soifft/internal/mpinet"
	"soifft/internal/perfmodel"
	"soifft/internal/signal"
	"soifft/internal/telemetry"
	"soifft/internal/trace"
)

func main() {
	rank := flag.Int("rank", 0, "this process's rank")
	size := flag.Int("size", 1, "total rank count")
	listen := flag.String("listen", "127.0.0.1:0", "listen address for this rank")
	peers := flag.String("peers", "", "comma-separated listen addresses of all ranks, in rank order")
	n := flag.Int("n", 1<<16, "transform length")
	segments := flag.Int("segments", 8, "SOI segments P")
	taps := flag.Int("taps", 72, "convolution taps B")
	seed := flag.Int64("seed", 1, "shared input seed")
	connectTimeout := flag.Duration("connect-timeout", mpinet.DefaultConnectTimeout,
		"how long to wait for all peers before giving up")
	ioTimeout := flag.Duration("io-timeout", 30*time.Second,
		"per-operation I/O deadline on peer links; a peer that stalls longer is declared dead with a typed error (0 = wait forever)")
	coded := flag.Int("coded", -1,
		"erasure parity shares m for the coded exchange: survive ranks dying mid-transform at a wire cost of (R-1+m)/(R-1) (0 = detection only, -1 = plain exchange)")
	window := flag.Int("async-window", 0,
		"stream the all-to-all in chunks with this many in flight per link, overlapping wire time with convolution (0 = blocking exchange, at most -size); composes with -coded")
	faultPlan := flag.String("fault-plan", "",
		"faultnet chaos plan injected into this rank's links, e.g. seed=42,corrupt=0.001,latency=1ms (see internal/faultnet)")
	report := flag.Bool("report", false,
		"arm stage timers and print this rank's observability report after the transform: per-stage timings, comm counters, and the measured-vs-predicted communication ratio")
	telemetryFlag := flag.Bool("telemetry", false,
		"arm the cluster telemetry plane: this rank ships stat frames to rank 0 at end-of-transform and on exit; pass it (or any other telemetry flag) to EVERY rank, and add -cluster-json/-watch/-http on rank 0 for the aggregated surfaces")
	telemetryInterval := flag.Duration("telemetry-interval", 0,
		"ship this rank's stat frame to rank 0 this often mid-transform, in addition to the end-of-transform and final frames (0 = no periodic shipping); arming any telemetry flag starts the cluster plane")
	clusterJSON := flag.String("cluster-json", "",
		"rank 0: write the final aggregated cluster snapshot (per-rank stage matrix, per-link wire table, explainer findings) as JSON to this file")
	watch := flag.Duration("watch", 0,
		"rank 0: print the live cluster view to stderr this often while the run is in flight")
	httpAddr := flag.String("http", "",
		"serve /metrics (Prometheus, this rank + cluster gauges on rank 0) and /debug/cluster (aggregated JSON, rank 0) on this address")
	traceOut := flag.String("trace-out", "",
		"write this rank's Perfetto trace JSON here (rank 0 mints the trace ID and broadcasts it, so per-rank files merge into one timeline with `soitrace merge`)")
	flightDir := flag.String("flight-dir", "",
		"dump the event ring to a timestamped Perfetto file in this directory when a typed transport fault kills the run (implies tracing)")
	logLevel := flag.String("log-level", "info", "log verbosity: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "log encoding: text|json")
	flag.Parse()

	logger, err := logutil.New(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		failPlain(err)
	}
	log := logger.With("rank", *rank)

	// Flag validation that needs no network: reject an out-of-range
	// window before any socket is opened, so a typo fails in milliseconds
	// instead of after the mesh dial.
	if err := validateAsyncWindow(*window, *size); err != nil {
		fail(log, err)
	}

	addrs := strings.Split(*peers, ",")
	node, err := mpinet.NewNode(*rank, *size, *listen)
	if err != nil {
		fail(log, err)
	}
	node.SetConnectTimeout(*connectTimeout)
	if *faultPlan != "" {
		plan, err := faultnet.ParsePlan(*faultPlan)
		if err != nil {
			fail(log, err)
		}
		self := *rank
		node.SetConnWrapper(func(peerRank int, c net.Conn) net.Conn {
			return plan.Conn(c, faultnet.LinkID(self, peerRank))
		})
		log.Info("chaos drill armed", "plan", plan.String())
	}
	log.Info("listening", "size", *size, "addr", node.Addr())
	proc, err := node.Connect(addrs)
	if err != nil {
		var pe *mpinet.PeerError
		if errors.As(err, &pe) {
			fail(log, fmt.Errorf("%w\npeer rank %d never appeared at %s within %v — check that every rank is running and -peers lists the same addresses in rank order",
				err, pe.Rank, pe.Addr, *connectTimeout))
		}
		fail(log, err)
	}
	defer proc.Close()
	proc.SetIOTimeout(*ioTimeout)

	plan, err := core.NewPlan(core.Params{
		N: *n, P: *segments, Mu: 5, Nu: 4, B: *taps,
	})
	if err != nil {
		fail(log, err)
	}
	if err := plan.ValidateDistributed(*size); err != nil {
		fail(log, err)
	}
	if *coded >= 0 {
		if err := core.ValidateCoded(*size, *coded); err != nil {
			fail(log, err)
		}
	}
	telemetryOn := *telemetryFlag || *telemetryInterval > 0 || *clusterJSON != "" || *watch > 0 || *httpAddr != ""
	if *report || telemetryOn {
		// The telemetry plane reports from the same recorder the -report
		// view reads; arming either arms the stage timers.
		plan.SetRecorder(instrument.New(instrument.LevelTimers))
		proc.SetRecorder(plan.Recorder())
	}

	// Tracing: every rank records into its own ring; the trace ID is
	// minted once on rank 0 and broadcast as a control frame so the
	// per-rank timelines correlate.
	var tracer *trace.Tracer
	var tid trace.ID
	ctx := context.Background()
	if *traceOut != "" || *flightDir != "" {
		tracer = trace.New(0)
		proc.SetTracer(tracer)
		if *flightDir != "" {
			tracer.SetFlightDir(*flightDir)
		}
		if *rank == 0 {
			tid = trace.NewID()
		}
		if tid, err = proc.ShareTraceID(tid); err != nil {
			fail(log, err)
		}
		ctx = trace.WithTracer(trace.WithID(ctx, tid), tracer)
		log = log.With("trace_id", tid.String())
		log.Info("tracing armed", "out", *traceOut, "flight_dir", *flightDir)
	}

	// The cluster telemetry plane: every rank ships compact stat frames
	// to rank 0 over the transform's own links (control tag), rank 0
	// aggregates and explains. Armed by any of the telemetry flags.
	var plane *telemetry.Plane
	if telemetryOn {
		plane, err = telemetry.Start(telemetry.Config{
			Conn:     proc,
			Recorder: plan.Recorder(),
			Shape: telemetry.Shape{
				N: *n, Segments: *segments, Taps: *taps, Beta: 0.25,
				Parity: *coded, Window: *window,
			},
			Interval: *telemetryInterval,
			Tracer:   tracer,
			TraceID:  tid,
		})
		if err != nil {
			fail(log, err)
		}
		log.Info("telemetry plane armed", "interval", telemetryInterval.String())
	}
	if *httpAddr != "" {
		mux := http.NewServeMux()
		rankLabel := map[string]string{"rank": fmt.Sprint(*rank)}
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			instrument.WritePrometheus(w, "", rankLabel, plan.Recorder().Snapshot())
			telemetry.WritePrometheus(w, "", plane.Snapshot())
		})
		mux.Handle("/debug/cluster", telemetry.Handler(plane.Snapshot))
		go func() {
			if herr := http.ListenAndServe(*httpAddr, mux); herr != nil {
				log.Warn("http server exited", "err", herr.Error())
			}
		}()
		log.Info("http armed", "addr", *httpAddr)
	}
	var watchStop chan struct{}
	if *watch > 0 && *rank == 0 {
		watchStop = make(chan struct{})
		go func() {
			t := time.NewTicker(*watch)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					telemetry.WriteText(os.Stderr, plane.Snapshot())
				case <-watchStop:
					return
				}
			}
		}()
	}

	src := signal.Random(*n, *seed)
	nLocal := *n / *size
	out := make([]complex128, nLocal)
	if err := proc.Barrier(); err != nil {
		fail(log, err)
	}
	// The sync instant lands right after a barrier, so every rank emits
	// it at (nearly) the same wall-clock moment; `soitrace merge` aligns
	// the per-rank files on it.
	tracer.Sync(tid, *rank)
	t0 := time.Now()
	var deg *core.DegradedError
	localIn := src[*rank*nLocal : (*rank+1)*nLocal]
	opts := []core.DistOption{core.WithTelemetry(plane), core.WithAsyncWindow(*window)}
	if *coded >= 0 {
		opts = append(opts, core.WithCoding(*coded))
	}
	dt, err := plan.RunDistributed(ctx, proc, out, localIn, opts...)
	if *coded >= 0 && errors.As(err, &deg) {
		// The spectrum is complete and bit-exact; the error is
		// informational. Degraded completion is a success exit.
		log.Warn("transform completed degraded: dead rank(s) reconstructed from parity",
			"reconstructed", fmt.Sprint(deg.ReconstructedRanks),
			"coordinator", deg.Coordinator,
			"parity_bytes", deg.ParityBytes, "recovery_bytes", deg.RecoveryBytes)
		err = nil
	}
	if err != nil {
		fail(log, err)
	}
	log.Info("transform done", "elapsed", time.Since(t0).String(),
		"halo", dt.Halo.String(), "convolve", dt.Convolve.String(),
		"exchange", dt.Exchange.String(), "segment_fft", dt.SegmentFT.String())

	full, reportRank, err := core.GatherDegraded(proc, 0, out, deg)
	if err != nil {
		fail(log, err)
	}
	if reportRank != 0 {
		log.Warn("gather rerouted around dead root", "landed_at", reportRank)
	}
	if *rank == reportRank {
		ref, err := fft.Forward(src)
		if err != nil {
			fail(log, err)
		}
		log.Info("gathered spectrum", "points", len(full),
			"rel_err", fmt.Sprintf("%.3e", signal.RelErrL2(full, ref)),
			"snr_db", fmt.Sprintf("%.0f", signal.SNRdB(full, ref)))
	}
	if deg == nil {
		// The closing barrier needs every rank; after a degraded run the
		// dead rank can never join it.
		if err := proc.Barrier(); err != nil {
			fail(log, err)
		}
	}

	// Finalize telemetry before the trace is written: every rank ships
	// its final frame; rank 0 aggregates, runs the explainer (findings
	// are mirrored into the trace as instant events) and renders the
	// cluster view. Dead ranks surface as stale findings, never a hang.
	if plane != nil {
		if watchStop != nil {
			close(watchStop)
		}
		if snap := plane.Final(); snap != nil {
			telemetry.WriteText(os.Stderr, snap)
			if len(snap.Findings) > 0 {
				top := snap.Findings[0]
				log.Info("explainer top finding", "kind", top.Kind, "rank", top.Rank,
					"ratio", fmt.Sprintf("%.2f", top.Ratio), "detail", top.Detail)
			}
			if *clusterJSON != "" {
				data, jerr := json.MarshalIndent(snap, "", "  ")
				if jerr == nil {
					jerr = os.WriteFile(*clusterJSON, append(data, '\n'), 0o644)
				}
				if jerr != nil {
					fail(log, fmt.Errorf("writing cluster snapshot: %w", jerr))
				}
				log.Info("cluster snapshot written", "path", *clusterJSON, "findings", len(snap.Findings))
			}
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(log, err)
		}
		werr := tracer.WritePerfetto(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fail(log, fmt.Errorf("writing trace: %w", werr))
		}
		log.Info("trace written", "path", *traceOut, "events", tracer.Len())
	}

	if *report {
		snap := plan.Recorder().Snapshot()
		writeStageReport(fmt.Sprintf("rank %d", *rank), snap)
		nPrime := int64(*n) * 5 / 4
		perRank := 16 * nPrime * int64(*size-1) / int64(*size) / int64(*size)
		baseline := 3 * 16 * int64(*n) * int64(*size-1) / int64(*size) / int64(*size)
		model := perfmodel.Model{Beta: 0.25}
		ratio := 0.0
		if snap.Comm.AlltoallBytes > 0 {
			ratio = float64(baseline) / float64(snap.Comm.AlltoallBytes)
		}
		fmt.Printf("rank %d: exchange volume %d B/transform (analytic per-rank %d B); vs triple-all-to-all %d B: ratio %.3f, paper predicts 3/(1+beta) = %.3f\n",
			*rank, snap.Comm.AlltoallBytes, perRank, baseline, ratio, model.AsymptoticSpeedup())
		if *window > 0 {
			exWall := snap.Stages[instrument.StageExchange].Wall
			fmt.Printf("rank %d: async exchange: %d chunks streamed, window %d, un-hidden %s, hidden behind compute %s, overlap %.2f, credit-stall %s\n",
				*rank, snap.Comm.StreamChunks, *window, exWall,
				snap.Comm.HiddenExchange, snap.Comm.OverlapRatio(exWall), snap.Comm.CreditStall)
		}
		if *coded >= 0 {
			fmt.Printf("rank %d: coded: parity %d B, recovery %d B, %d reconstructions, %d degraded transforms\n",
				*rank, snap.Comm.ParityBytes, snap.Comm.RecoveryBytes,
				snap.Comm.Reconstructions, snap.Comm.DegradedTransforms)
		}
		// Shutdown flushes the closing barrier's frames out of the writer
		// queue, so the frames and bytes out below equal what peers count in.
		proc.Shutdown()
		ns := proc.Stats()
		fmt.Printf("rank %d: wire: %d frames out (%d B), %d frames in (%d B), %d heartbeats, %d dial retries, %d deadline, %d checksum, %d link failures\n",
			*rank, ns.FramesSent, ns.BytesSent, ns.FramesReceived, ns.BytesReceived,
			ns.HeartbeatsSent, ns.DialRetries, ns.DeadlineEvents, ns.ChecksumErrors, ns.LinkFailures)
	}
}

// writeStageReport prints a recorder snapshot as a compact per-stage
// text block: this rank's view for -report.
func writeStageReport(label string, snap instrument.Snapshot) {
	fmt.Printf("%s: %d transform(s), convolve kernel %s, fft kernel %s\n",
		label, snap.Transforms, core.ConvolveKernel(), fft.Kernel())
	for _, st := range snap.Stages {
		if st.Calls == 0 {
			continue
		}
		fmt.Printf("%s:   %-11s calls %-4d wall %-12v occup %.2f  %.2f GF/s\n",
			label, st.Stage.String(), st.Calls, st.Wall, st.Occupancy(), st.GFlopsPerSec())
	}
	c := snap.Comm
	if c.Messages+c.Alltoalls > 0 {
		fmt.Printf("%s:   comm: %d msgs (%d B), %d all-to-all (%d B), %d retransmits, %d deadline, %d checksum\n",
			label, c.Messages, c.Bytes, c.Alltoalls, c.AlltoallBytes,
			c.Retransmits, c.DeadlineEvents, c.ChecksumErrors)
	}
	if c.StreamChunks > 0 {
		fmt.Printf("%s:   stream: %d chunks, overlap %.0f%%, credit-stall %v\n",
			label, c.StreamChunks,
			100*c.OverlapRatio(snap.Stages[instrument.StageExchange].Wall),
			c.CreditStall.Round(time.Microsecond))
	}
}

// UsageError is a rejected flag value: what was passed, and why it
// cannot mean anything. Flag validation fails typed like the transport
// does, so scripts can tell operator error (bad invocation, fix the
// command line) from runtime faults (dead peers, wire corruption).
type UsageError struct {
	Flag   string
	Value  string
	Reason string
}

func (e *UsageError) Error() string {
	return fmt.Sprintf("usage: %s=%s: %s", e.Flag, e.Value, e.Reason)
}

// validateAsyncWindow checks the -async-window flag: a window in
// [0, size] (0 = blocking exchange). A negative window, or one wider
// than the rank count (more in-flight chunks than destinations could
// ever absorb), is a *UsageError, never a silent clamp.
func validateAsyncWindow(w, size int) error {
	v := strconv.Itoa(w)
	if w < 0 {
		return &UsageError{Flag: "-async-window", Value: v,
			Reason: "window must not be negative (0 selects the blocking exchange)"}
	}
	if w > size {
		return &UsageError{Flag: "-async-window", Value: v,
			Reason: fmt.Sprintf("window exceeds the rank count %d; deeper windows cannot add in-flight chunks", size)}
	}
	return nil
}

// fail exits non-zero; a typed transport fault names the failed peer and
// operation in its own structured record so operators can see at a
// glance which rank to investigate.
func fail(log *slog.Logger, err error) {
	var loss *core.UnrecoverableLossError
	if errors.As(err, &loss) {
		log.Error("unrecoverable loss: more ranks died than the parity budget covers",
			"dead_ranks", fmt.Sprint(loss.DeadRanks), "parity", loss.Parity, "err", err.Error())
		os.Exit(1)
	}
	var te *mpinet.TransportError
	if errors.As(err, &te) {
		log.Error("transport failure", "peer", te.Rank, "op", te.Op, "err", te.Err.Error())
		os.Exit(1)
	}
	log.Error("fatal", "err", err.Error())
	os.Exit(1)
}

// failPlain reports errors hit before the logger exists (bad -log-*
// flags).
func failPlain(err error) {
	fmt.Fprintln(os.Stderr, "soinode:", err)
	os.Exit(1)
}
