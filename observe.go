package soifft

import (
	"fmt"
	"io"
	"strings"
	"time"

	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/instrument"
)

// InstrumentLevel selects how much a plan observes about its own
// execution (see WithInstrumentation).
type InstrumentLevel int

// Instrumentation levels.
const (
	// InstrumentOff records nothing; the execution paths pay one pointer
	// test per stage and nothing else. This is the default.
	InstrumentOff InstrumentLevel = iota
	// InstrumentCounters maintains atomic event counters — transforms,
	// stage calls, FLOP estimates, communication bytes and messages —
	// without ever reading the clock.
	InstrumentCounters
	// InstrumentTimers additionally measures per-stage wall time and
	// worker busy time, enabling occupancy and GFLOP/s reporting at the
	// cost of a handful of clock reads per transform.
	InstrumentTimers
)

// String names the level.
func (l InstrumentLevel) String() string { return instrument.Level(l).String() }

// WithInstrumentation enables execution observability on the plan at the
// given level. Retrieve accumulated data with Plan.Report; zero it with
// Plan.ResetReport. With InstrumentOff (the default) the overhead is a
// single pointer test per pipeline stage.
func WithInstrumentation(level InstrumentLevel) Option {
	return func(o *options) { o.instrument = level }
}

// Instrument attaches instrumentation at the given level to an existing
// plan (or detaches it with InstrumentOff), replacing any previous
// recorder and its counts. Like plan construction it is not synchronized
// with execution: call it before sharing the plan across goroutines, not
// while transforms are in flight.
func (p *Plan) Instrument(level InstrumentLevel) {
	p.inner.SetRecorder(instrument.New(instrument.Level(level)))
}

// InstrumentationLevel reports the plan's current level.
func (p *Plan) InstrumentationLevel() InstrumentLevel {
	return InstrumentLevel(p.inner.Recorder().Level())
}

// StageReport is the accumulated observation of one pipeline stage.
type StageReport struct {
	// Stage is the stable stage identifier: "halo", "convolve",
	// "exchange", "segment_fft" or "demod", in pipeline order. The
	// demodulation runs inside the last pass of each segment FFT, so
	// "demod" books its calls and flops with zero wall: its time is in
	// "segment_fft".
	Stage string
	// Calls counts stage executions (one per transform that ran it).
	Calls int64
	// Wall is the cumulative wall time (zero below InstrumentTimers).
	Wall time.Duration
	// Busy is the cumulative per-worker compute time, for stages that
	// measure it; Busy/Wall·Workers is the occupancy.
	Busy time.Duration
	// Workers is the widest worker span observed for the stage.
	Workers int
	// Flops is the cumulative estimated floating-point operations.
	Flops int64
	// Occupancy is worker utilization in [0, 1]: busy time over wall
	// time times the worker span. Zero when not measured.
	Occupancy float64
	// GFlopsPerSec is the achieved rate from Flops and Wall (zero when
	// timing is off or the stage carries no FLOP estimate).
	GFlopsPerSec float64
}

// CommReport is the accumulated communication observation of a plan's
// distributed runs (zero for shared-memory-only plans).
type CommReport struct {
	// Messages and Bytes count point-to-point sends (halo exchanges,
	// gather contributions) at the sender.
	Messages int64
	Bytes    int64
	// Alltoalls counts collective all-to-all operations — the headline
	// number the SOI factorization minimizes (1 per transform vs 3 for
	// conventional distributed FFTs).
	Alltoalls int64
	// AlltoallBytes is the inter-rank payload of those collectives,
	// self-copies excluded: per SOI transform over R ranks this totals
	// 16·(1+β)·N·(R−1)/R bytes.
	AlltoallBytes int64
	// Retransmits, DeadlineEvents and ChecksumErrors surface transport
	// fault activity (TCP mesh runs; always zero in-process).
	Retransmits    int64
	DeadlineEvents int64
	ChecksumErrors int64
	// StreamChunks counts the remote chunks the exchange stream shipped:
	// one per peer at window 0, one per peer and tile with an async
	// window.
	StreamChunks int64
	// HiddenExchange is exchange wire time that ran concurrently with
	// convolution or segment assembly — time the async pipeline hid.
	HiddenExchange time.Duration
	// CreditStall is time streamed sends spent blocked on a full
	// per-destination credit window (the producer outran a link).
	CreditStall time.Duration
}

// Report is a point-in-time snapshot of a plan's accumulated
// observability counters.
type Report struct {
	// Level is the instrumentation level the data was recorded at.
	Level InstrumentLevel
	// ConvolveKernel names the convolution kernel this process runs for
	// plans whose segment count is a multiple of 8: "avx512" (four rows
	// of a phase per tap load), "avx2", or "go" where the build or the
	// CPU has no SIMD kernel. All return the same bits; a host that reads
	// "avx2" where its peers read "avx512" convolves about twice slower,
	// and one that reads "go" several times slower still.
	ConvolveKernel string
	// FFTKernel names the butterfly kernels this process runs for the
	// segment FFT and the P-point batch, "avx2" or "go" under the same
	// rules; a "go" host runs those stages about twice slower.
	FFTKernel string
	// Transforms counts completed transform executions. Shared-memory
	// calls count once each; distributed runs count once per rank.
	Transforms int64
	// Stages holds per-stage data in pipeline order (see StageReport).
	Stages []StageReport
	// Comm aggregates communication activity.
	Comm CommReport
}

// Report snapshots the plan's accumulated counters. Without
// WithInstrumentation the report is zero-valued with Level
// InstrumentOff. Counters are cumulative until ResetReport.
func (p *Plan) Report() Report {
	return reportFromSnapshot(p.inner.Recorder().Snapshot())
}

// ResetReport zeroes the plan's accumulated counters, keeping the level.
func (p *Plan) ResetReport() { p.inner.Recorder().Reset() }

func reportFromSnapshot(s instrument.Snapshot) Report {
	r := Report{
		Level:          InstrumentLevel(s.Level),
		ConvolveKernel: core.ConvolveKernel(),
		FFTKernel:      fft.Kernel(),
		Transforms:     s.Transforms,
		Stages:         make([]StageReport, 0, len(s.Stages)),
	}
	for _, st := range s.Stages {
		r.Stages = append(r.Stages, StageReport{
			Stage:        st.Stage.String(),
			Calls:        st.Calls,
			Wall:         st.Wall,
			Busy:         st.Busy,
			Workers:      int(st.Workers),
			Flops:        st.Flops,
			Occupancy:    st.Occupancy(),
			GFlopsPerSec: st.GFlopsPerSec(),
		})
	}
	r.Comm = CommReport{
		Messages:       s.Comm.Messages,
		Bytes:          s.Comm.Bytes,
		Alltoalls:      s.Comm.Alltoalls,
		AlltoallBytes:  s.Comm.AlltoallBytes,
		Retransmits:    s.Comm.Retransmits,
		DeadlineEvents: s.Comm.DeadlineEvents,
		ChecksumErrors: s.Comm.ChecksumErrors,
		StreamChunks:   s.Comm.StreamChunks,
		HiddenExchange: s.Comm.HiddenExchange,
		CreditStall:    s.Comm.CreditStall,
	}
	return r
}

// String renders the report as an aligned human-readable table (the
// format the -report flags of soifft and soinode print).
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "instrumentation: %s, transforms: %d, convolve kernel: %s, fft kernel: %s\n",
		r.Level, r.Transforms, r.ConvolveKernel, r.FFTKernel)
	fmt.Fprintf(&b, "%-12s %8s %12s %10s %7s %12s %9s\n",
		"stage", "calls", "wall", "occup", "workers", "gflop", "gflop/s")
	for _, st := range r.Stages {
		if st.Calls == 0 {
			continue
		}
		occ := "-"
		if st.Occupancy > 0 {
			occ = fmt.Sprintf("%.0f%%", st.Occupancy*100)
		}
		rate := "-"
		if st.GFlopsPerSec > 0 {
			rate = fmt.Sprintf("%.2f", st.GFlopsPerSec)
		}
		fmt.Fprintf(&b, "%-12s %8d %12s %10s %7d %12.3f %9s\n",
			st.Stage, st.Calls, st.Wall.Round(time.Microsecond), occ,
			st.Workers, float64(st.Flops)/1e9, rate)
	}
	c := r.Comm
	if c.Messages+c.Alltoalls > 0 {
		fmt.Fprintf(&b, "comm: %d p2p msgs (%d B), %d all-to-all (%d B)",
			c.Messages, c.Bytes, c.Alltoalls, c.AlltoallBytes)
		if c.Retransmits+c.DeadlineEvents+c.ChecksumErrors > 0 {
			fmt.Fprintf(&b, ", faults: %d retransmit %d deadline %d checksum",
				c.Retransmits, c.DeadlineEvents, c.ChecksumErrors)
		}
		if c.StreamChunks > 0 {
			fmt.Fprintf(&b, ", stream: %d chunks, %v hidden, %v credit-stall",
				c.StreamChunks, c.HiddenExchange.Round(time.Microsecond),
				c.CreditStall.Round(time.Microsecond))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// WriteMetrics renders the plan's counters in the Prometheus text
// exposition format (metric family prefix "soifft", counters suffixed
// _total, durations in seconds). labels, if non-nil, are attached to
// every series — pass e.g. {"plan": "n=4096"} to distinguish plans
// sharing an endpoint.
func (p *Plan) WriteMetrics(w io.Writer, labels map[string]string) error {
	instrument.WritePrometheus(w, "soifft", labels, p.inner.Recorder().Snapshot())
	return nil
}
