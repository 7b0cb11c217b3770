// Package instrument is the pipeline observability layer: lock-free
// per-stage and per-operation counters that the SOI execution paths
// (core.Plan.Transform*, the distributed drivers, the transports) feed
// and that the public soifft.Plan.Report surface, the soiserve /metrics
// endpoint and the -report flags of the commands render.
//
// The design goal is a hot path that costs nothing when observability is
// off and only atomic adds when it is on:
//
//   - a nil *Recorder is fully inert — every method is nil-safe and the
//     execution paths guard with a single pointer test;
//   - LevelCounters updates monotonic atomic counters (calls, FLOPs,
//     bytes, messages) and never reads the clock;
//   - LevelTimers additionally records per-stage wall time and worker
//     busy time (occupancy), paying a handful of time.Now calls per
//     transform.
//
// All counters are cumulative since creation (or the last Reset); a
// Snapshot is a consistent-enough point-in-time copy for reporting (each
// counter is read atomically; cross-counter skew is bounded by one
// in-flight transform).
package instrument

import (
	"sync/atomic"
	"time"
)

// Level selects how much the recorder observes.
type Level int32

// Observability levels.
const (
	// LevelOff records nothing. A nil *Recorder behaves identically;
	// execution paths treat the two the same.
	LevelOff Level = iota
	// LevelCounters maintains atomic event counters (stage calls, FLOP
	// estimates, communication bytes/messages) without reading the clock.
	LevelCounters
	// LevelTimers additionally measures per-stage wall time and worker
	// busy time, enabling occupancy and rate reporting.
	LevelTimers
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelOff:
		return "off"
	case LevelCounters:
		return "counters"
	case LevelTimers:
		return "timers"
	default:
		return "unknown"
	}
}

// Stage identifies one factorization stage of the SOI pipeline, in
// execution order. The same identifiers serve the shared-memory path
// (where Exchange is the in-memory stride-P transpose) and the
// distributed path (where Exchange is the single all-to-all and Halo the
// neighbour prefix exchange).
type Stage int

// Pipeline stages.
const (
	// StageHalo is the neighbour halo exchange of (B−1)·P points
	// (distributed runs only; zero on the shared-memory path).
	StageHalo Stage = iota
	// StageConvolve is the oversampled convolution W·x fused with the
	// I⊗F_P block FFT batch — the extra arithmetic SOI pays.
	StageConvolve
	// StageExchange is the stride-P permutation: the in-memory transpose
	// on one machine, the single all-to-all across ranks.
	StageExchange
	// StageSegmentFFT is the per-segment F_M' batch.
	StageSegmentFFT
	// StageDemod is the projection to M entries and Ŵ⁻¹ demodulation.
	StageDemod

	// NumStages is the stage count (for iteration).
	NumStages
)

// String names the stage (stable identifiers used as metric labels).
func (s Stage) String() string {
	switch s {
	case StageHalo:
		return "halo"
	case StageConvolve:
		return "convolve"
	case StageExchange:
		return "exchange"
	case StageSegmentFFT:
		return "segment_fft"
	case StageDemod:
		return "demod"
	default:
		return "unknown"
	}
}

// stageCounters is the per-stage accumulator.
type stageCounters struct {
	calls  atomic.Int64
	wallNs atomic.Int64
	busyNs atomic.Int64
	flops  atomic.Int64
	// workers remembers the widest worker span observed for the stage,
	// the denominator of the occupancy ratio.
	workers atomic.Int64
}

// commCounters accumulates communication activity.
type commCounters struct {
	messages       atomic.Int64
	bytes          atomic.Int64
	alltoalls      atomic.Int64
	alltoallBytes  atomic.Int64
	retransmits    atomic.Int64
	deadlineEvents atomic.Int64
	checksumErrors atomic.Int64

	// Coded-exchange counters: the redundancy overhead (parity shares on
	// the wire), the repair traffic (view/agree/pool/refill frames), and
	// the outcomes (codewords rebuilt, transforms that finished degraded).
	parityBytes     atomic.Int64
	recoveryBytes   atomic.Int64
	reconstructions atomic.Int64
	degraded        atomic.Int64

	// Streamed-exchange counters: chunks shipped by the async pipelined
	// all-to-all, and the wire time it hid behind compute. With the
	// streamed exchange, the StageExchange wall timer reports only the
	// un-hidden remainder; hiddenExchangeNs preserves the overlapped
	// span so reports can show both halves.
	streamChunks     atomic.Int64
	hiddenExchangeNs atomic.Int64

	// creditStallNs is time streamed senders spent blocked on a full
	// per-destination credit window — the producer outrunning the wire.
	// Sustained stall means the window (or the link) is too small for
	// the compute rate; the explainer attributes excess exchange to it.
	creditStallNs atomic.Int64
}

// Recorder accumulates observations. All methods are safe for concurrent
// use and safe on a nil receiver (no-ops), so execution paths can hold an
// optional *Recorder and call unconditionally on guarded branches.
type Recorder struct {
	level      atomic.Int32
	transforms atomic.Int64
	stages     [NumStages]stageCounters
	comm       commCounters
}

// New returns a recorder at the given level; LevelOff (or below) yields
// nil, the canonical "not observing" recorder.
func New(level Level) *Recorder {
	if level <= LevelOff {
		return nil
	}
	r := &Recorder{}
	r.level.Store(int32(level))
	return r
}

// Level returns the recorder's level (LevelOff for nil).
func (r *Recorder) Level() Level {
	if r == nil {
		return LevelOff
	}
	return Level(r.level.Load())
}

// On reports whether any observation is active.
func (r *Recorder) On() bool { return r != nil && Level(r.level.Load()) > LevelOff }

// Timing reports whether wall/busy time should be measured.
func (r *Recorder) Timing() bool { return r != nil && Level(r.level.Load()) >= LevelTimers }

// AddTransform counts one completed transform execution.
func (r *Recorder) AddTransform() {
	if r == nil {
		return
	}
	r.transforms.Add(1)
}

// ObserveStage records one execution of a stage: wall and busy time
// (zero unless the caller measured them), the worker span that executed
// it, and the estimated floating-point operations.
func (r *Recorder) ObserveStage(s Stage, wall, busy time.Duration, workers int, flops int64) {
	if r == nil || s < 0 || s >= NumStages {
		return
	}
	c := &r.stages[s]
	c.calls.Add(1)
	c.flops.Add(flops)
	if wall > 0 {
		c.wallNs.Add(int64(wall))
	}
	if busy > 0 {
		c.busyNs.Add(int64(busy))
	}
	w := int64(workers)
	for {
		cur := c.workers.Load()
		if w <= cur || c.workers.CompareAndSwap(cur, w) {
			break
		}
	}
}

// CountMessage records one point-to-point payload of the given size.
func (r *Recorder) CountMessage(bytes int64) {
	if r == nil {
		return
	}
	r.comm.messages.Add(1)
	r.comm.bytes.Add(bytes)
}

// CountAlltoallBytes adds this rank's inter-rank contribution to an
// all-to-all (self-copies excluded, matching what a fabric would carry).
func (r *Recorder) CountAlltoallBytes(bytes int64) {
	if r == nil {
		return
	}
	r.comm.alltoallBytes.Add(bytes)
}

// CountAlltoallOp counts one collective all-to-all (call once per
// collective, not once per rank).
func (r *Recorder) CountAlltoallOp() {
	if r == nil {
		return
	}
	r.comm.alltoalls.Add(1)
}

// CountParityBytes adds erasure parity payload this rank shipped in a
// coded exchange — the wire overhead the coded mode pays over the plain
// all-to-all's 16·(1+β)·N·(R−1)/R bytes.
func (r *Recorder) CountParityBytes(bytes int64) {
	if r == nil {
		return
	}
	r.comm.parityBytes.Add(bytes)
}

// CountRecoveryBytes adds control and repair payload moved by the coded
// exchange's failure protocol (view/agreement masks, share pooling,
// chunk refills, output takeover traffic).
func (r *Recorder) CountRecoveryBytes(bytes int64) {
	if r == nil {
		return
	}
	r.comm.recoveryBytes.Add(bytes)
}

// CountReconstruction records one erasure codeword rebuilt from parity
// (one per recovered source rank per transform).
func (r *Recorder) CountReconstruction() {
	if r == nil {
		return
	}
	r.comm.reconstructions.Add(1)
}

// CountDegraded records one transform that completed degraded (correct
// output, one or more ranks reconstructed).
func (r *Recorder) CountDegraded() {
	if r == nil {
		return
	}
	r.comm.degraded.Add(1)
}

// CountStreamChunk records one chunk shipped through the streamed
// (async pipelined) all-to-all, self-chunks excluded.
func (r *Recorder) CountStreamChunk() {
	if r == nil {
		return
	}
	r.comm.streamChunks.Add(1)
}

// AddHiddenExchange accumulates exchange wire time that ran concurrently
// with compute and therefore does not appear in StageExchange's wall
// time. HiddenExchange + StageExchange wall reconstructs the comparable
// blocking-exchange span for overlap-ratio reporting.
func (r *Recorder) AddHiddenExchange(d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.comm.hiddenExchangeNs.Add(int64(d))
}

// AddCreditStall accumulates time a streamed send spent blocked on a
// full per-destination credit window (queued-but-unflushed chunks at the
// window limit). Zero on transports whose sends complete synchronously.
func (r *Recorder) AddCreditStall(d time.Duration) {
	if r == nil || d <= 0 {
		return
	}
	r.comm.creditStallNs.Add(int64(d))
}

// CountRetransmit records a transport-level retry (e.g. a mesh dial
// retry while peers launch).
func (r *Recorder) CountRetransmit() {
	if r == nil {
		return
	}
	r.comm.retransmits.Add(1)
}

// CountDeadline records an expired I/O deadline.
func (r *Recorder) CountDeadline() {
	if r == nil {
		return
	}
	r.comm.deadlineEvents.Add(1)
}

// CountChecksumError records a corrupted-frame event.
func (r *Recorder) CountChecksumError() {
	if r == nil {
		return
	}
	r.comm.checksumErrors.Add(1)
}

// Reset zeroes every counter (the level is kept).
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.transforms.Store(0)
	for i := range r.stages {
		c := &r.stages[i]
		c.calls.Store(0)
		c.wallNs.Store(0)
		c.busyNs.Store(0)
		c.flops.Store(0)
		c.workers.Store(0)
	}
	r.comm.messages.Store(0)
	r.comm.bytes.Store(0)
	r.comm.alltoalls.Store(0)
	r.comm.alltoallBytes.Store(0)
	r.comm.retransmits.Store(0)
	r.comm.deadlineEvents.Store(0)
	r.comm.checksumErrors.Store(0)
	r.comm.parityBytes.Store(0)
	r.comm.recoveryBytes.Store(0)
	r.comm.reconstructions.Store(0)
	r.comm.degraded.Store(0)
	r.comm.streamChunks.Store(0)
	r.comm.hiddenExchangeNs.Store(0)
	r.comm.creditStallNs.Store(0)
}

// StageSnapshot is the point-in-time copy of one stage's counters.
type StageSnapshot struct {
	Stage   Stage
	Calls   int64
	Wall    time.Duration
	Busy    time.Duration
	Workers int64
	Flops   int64
}

// Occupancy is the worker utilization of the stage: busy time divided by
// wall time times the worker span (1.0 = every worker busy for the whole
// stage). Zero when timing was not recorded.
func (s StageSnapshot) Occupancy() float64 {
	if s.Wall <= 0 || s.Workers <= 0 {
		return 0
	}
	return float64(s.Busy) / (float64(s.Wall) * float64(s.Workers))
}

// GFlopsPerSec is the stage's achieved rate from the FLOP estimate and
// wall time (zero when timing was not recorded).
func (s StageSnapshot) GFlopsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Flops) / s.Wall.Seconds() / 1e9
}

// CommSnapshot is the point-in-time copy of the communication counters.
type CommSnapshot struct {
	Messages       int64
	Bytes          int64
	Alltoalls      int64
	AlltoallBytes  int64
	Retransmits    int64
	DeadlineEvents int64
	ChecksumErrors int64

	// ParityBytes is erasure parity payload shipped by coded exchanges.
	ParityBytes int64
	// RecoveryBytes is coded-mode control/repair payload (view masks,
	// share pooling, refills, takeovers).
	RecoveryBytes int64
	// Reconstructions counts erasure codewords rebuilt from parity.
	Reconstructions int64
	// DegradedTransforms counts transforms completed with reconstruction.
	DegradedTransforms int64

	// StreamChunks counts chunks shipped via the streamed all-to-all.
	StreamChunks int64
	// HiddenExchange is exchange wire time overlapped with compute and
	// excluded from the StageExchange wall timer.
	HiddenExchange time.Duration
	// CreditStall is time streamed sends spent blocked on a full
	// per-destination window: the producer outrunning the link.
	CreditStall time.Duration
}

// OverlapRatio is the fraction of total exchange time hidden behind
// compute: hidden / (hidden + visible StageExchange wall). Zero without
// timing or without streamed exchanges.
func (c CommSnapshot) OverlapRatio(exchangeWall time.Duration) float64 {
	total := c.HiddenExchange + exchangeWall
	if total <= 0 {
		return 0
	}
	return float64(c.HiddenExchange) / float64(total)
}

// Snapshot is a point-in-time copy of every counter.
type Snapshot struct {
	Level      Level
	Transforms int64
	Stages     [NumStages]StageSnapshot
	Comm       CommSnapshot
}

// Snapshot copies the counters (zero value for nil).
func (r *Recorder) Snapshot() Snapshot {
	var s Snapshot
	for i := range s.Stages {
		s.Stages[i].Stage = Stage(i)
	}
	if r == nil {
		return s
	}
	s.Level = Level(r.level.Load())
	s.Transforms = r.transforms.Load()
	for i := range r.stages {
		c := &r.stages[i]
		s.Stages[i] = StageSnapshot{
			Stage:   Stage(i),
			Calls:   c.calls.Load(),
			Wall:    time.Duration(c.wallNs.Load()),
			Busy:    time.Duration(c.busyNs.Load()),
			Workers: c.workers.Load(),
			Flops:   c.flops.Load(),
		}
	}
	s.Comm = CommSnapshot{
		Messages:           r.comm.messages.Load(),
		Bytes:              r.comm.bytes.Load(),
		Alltoalls:          r.comm.alltoalls.Load(),
		AlltoallBytes:      r.comm.alltoallBytes.Load(),
		Retransmits:        r.comm.retransmits.Load(),
		DeadlineEvents:     r.comm.deadlineEvents.Load(),
		ChecksumErrors:     r.comm.checksumErrors.Load(),
		ParityBytes:        r.comm.parityBytes.Load(),
		RecoveryBytes:      r.comm.recoveryBytes.Load(),
		Reconstructions:    r.comm.reconstructions.Load(),
		DegradedTransforms: r.comm.degraded.Load(),
		StreamChunks:       r.comm.streamChunks.Load(),
		HiddenExchange:     time.Duration(r.comm.hiddenExchangeNs.Load()),
		CreditStall:        time.Duration(r.comm.creditStallNs.Load()),
	}
	return s
}
