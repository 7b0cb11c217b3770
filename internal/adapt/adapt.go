// Package adapt is the closed-loop controller for the streamed
// exchange's async window: the policy that turns the telemetry plane
// from explainer into actuator. PR 8 made the all-to-all stream behind
// convolution but left the window w a hand-tuned flag; PR 9's telemetry
// plane measures exactly the inputs a controller needs (overlap ratio,
// per-destination credit-stall, per-link wire time). This package maps
// those measurements to the next window.
//
// The controller is a pure, deterministic state machine — no clocks, no
// I/O — so the policy is unit-testable as a table of synthetic
// measurements. It follows the classic measure→decide→hold loop:
//
//   - the first transform runs at the model prior (PriorWindow of the
//     perfmodel-predicted wire/compute ratio, or DefaultWindow when no
//     calibrated model is available);
//   - after each streamed transform, Observe folds in the measured
//     overlap ratio, credit-stall share and wire/compute ratio and
//     decides: grow when the exchange hides poorly behind compute and
//     the window is what the producer is blocked on, shrink back toward
//     the prior when the run is compute-bound, hold otherwise;
//   - hysteresis: once the controller acts, it holds until the signals
//     move beyond a dead band relative to the measurement it acted on,
//     so a ±10% noisy link cannot thrash the schedule.
//
// Measurements come from either side of the observability stack: a
// single rank's local counters (FromLocal — works with telemetry off)
// or rank 0's aggregated ClusterSnapshot (FromCluster), which also
// carries staleness: a fleet view with dead or unreported ranks is not
// actionable, and the controller holds rather than steering on it.
package adapt

import (
	"fmt"
	"math"
)

// DefaultWindow is the uncalibrated prior: the hand-tuned default the
// streamed exchange shipped with before the controller existed.
const DefaultWindow = 2

// Config bounds and tunes one controller. The zero value is usable:
// every field below has a documented default applied by New.
type Config struct {
	// MinWindow and MaxWindow clamp every decision (defaults 1 and 8).
	// Callers running over a real transport should set MaxWindow to the
	// rank count R — in-flight chunks beyond one per destination stop
	// buying overlap and only buffer memory.
	MinWindow, MaxWindow int
	// Prior is the perfmodel-predicted wire/compute ratio of the run
	// (Model.WireComputeRatio); 0 means "no calibrated model", which
	// yields DefaultWindow as the starting point.
	Prior float64
	// DeadBand is the hysteresis width: after the controller acts, every
	// signal must move more than this (relative for ratios, absolute for
	// fractions) from the acted-on measurement before it acts again.
	// Default 0.15 — comfortably above a ±10% noisy link.
	DeadBand float64
	// LowOverlap is the overlap ratio below which the exchange is
	// considered poorly hidden (default 2/3, mirroring the explainer's
	// low-overlap threshold band).
	LowOverlap float64
	// StallShare is the credit-stall share of the visible exchange above
	// which the window — not the wire — is what the producer is blocked
	// on (default 0.2).
	StallShare float64
	// ComputeBound is the wire/compute ratio below which the run is
	// compute-dominated and an inflated window buys nothing (default 0.5).
	ComputeBound float64
}

func (c Config) withDefaults() Config {
	if c.MinWindow < 1 {
		c.MinWindow = 1
	}
	if c.MaxWindow < c.MinWindow {
		c.MaxWindow = c.MinWindow + 7
	}
	if c.DeadBand <= 0 {
		c.DeadBand = 0.15
	}
	if c.LowOverlap <= 0 {
		c.LowOverlap = 2.0 / 3
	}
	if c.StallShare <= 0 {
		c.StallShare = 0.2
	}
	if c.ComputeBound <= 0 {
		c.ComputeBound = 0.5
	}
	return c
}

// PriorWindow maps a predicted wire/compute ratio to the starting
// window: enough chunks in flight to cover the wire's lag behind
// compute (ceil(2ρ) — one tile on the wire and one being produced per
// unit of ratio), clamped to [min, max]. A ratio of 0 (no model) yields
// DefaultWindow.
func PriorWindow(ratio float64, min, max int) int {
	if min < 1 {
		min = 1
	}
	if max < min {
		max = min
	}
	w := DefaultWindow
	if ratio > 0 {
		w = int(math.Ceil(2 * ratio))
	}
	if w < min {
		w = min
	}
	if w > max {
		w = max
	}
	return w
}

// Measurement is one completed streamed transform as the controller
// sees it — from a single rank's counters or aggregated over the fleet.
type Measurement struct {
	// Window is the async window the transform ran with.
	Window int
	// OverlapRatio is hidden/(hidden+visible) exchange time.
	OverlapRatio float64
	// StallShare is the credit-stall fraction of the visible exchange:
	// how much of the un-hidden time the producer spent blocked on a
	// full per-destination window (0 on transports whose sends complete
	// synchronously).
	StallShare float64
	// WireComputeRatio is (hidden+visible exchange)/convolve — above 1
	// the wire outlasts the compute it could hide behind.
	WireComputeRatio float64
	// Stale marks a measurement the controller must not steer on: a
	// cluster view with dead or unreported ranks, or counters known to
	// be frozen.
	Stale bool
}

// Decision is the controller's verdict for the next transform.
type Decision struct {
	// Window is the async window the next transform should run with.
	Window int
	// Prior is the model-prior window the controller started from —
	// soinode -report prints both: "window W (adaptive, model prior P)".
	Prior int
	// Changed reports whether this decision moved the window.
	Changed bool
	// Reason is the one-line explanation traced with the decision.
	Reason string
}

// String renders the decision the way trace instants and reports show it.
func (d Decision) String() string {
	return fmt.Sprintf("window=%d prior=%d changed=%v: %s", d.Window, d.Prior, d.Changed, d.Reason)
}

// Controller is the per-rank window policy state. It is NOT safe for
// concurrent use; callers serialize (core.Plan keeps one controller per
// rank behind a mutex).
type Controller struct {
	cfg   Config
	cur   int
	prior int

	acted   bool
	actedOn Measurement
	last    Decision
}

// New builds a controller starting at the model prior.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	w := PriorWindow(cfg.Prior, cfg.MinWindow, cfg.MaxWindow)
	c := &Controller{cfg: cfg, cur: w, prior: w}
	c.last = Decision{Window: w, Prior: w, Reason: "model prior"}
	return c
}

// Window is the window the next transform should run with.
func (c *Controller) Window() int { return c.cur }

// Decision returns the latest decision (the model prior before any
// Observe).
func (c *Controller) Decision() Decision { return c.last }

// Observe folds one measured transform in and returns the decision for
// the next. The policy, in priority order:
//
//  1. stale measurements hold — never steer on a fleet view with dead
//     or unreported ranks;
//  2. hysteresis: after an action, hold until the signals leave the
//     dead band around the acted-on measurement;
//  3. grow when overlap is low and either the producer measurably
//     stalls on the window or the run is wire-bound — more chunks in
//     flight is what hides more wire;
//  4. shrink back toward the prior when the run is compute-bound and
//     the window sits above it — in-flight chunks beyond the wire's
//     needs only hold buffers;
//  5. otherwise hold.
func (c *Controller) Observe(m Measurement) Decision {
	d := Decision{Window: c.cur, Prior: c.prior}
	switch {
	case m.Stale:
		d.Reason = "stale measurement; holding"
	case c.acted && c.withinDeadBand(m):
		d.Reason = fmt.Sprintf("within dead band of last action (overlap %.2f, stall %.2f); holding",
			m.OverlapRatio, m.StallShare)
	case m.OverlapRatio < c.cfg.LowOverlap &&
		(m.StallShare >= c.cfg.StallShare || m.WireComputeRatio >= 1) &&
		c.cur < c.cfg.MaxWindow:
		grown := c.cur + c.cur/2
		if grown == c.cur {
			grown++
		}
		if grown > c.cfg.MaxWindow {
			grown = c.cfg.MaxWindow
		}
		d.Window, d.Changed = grown, true
		d.Reason = fmt.Sprintf("overlap %.2f below %.2f with stall share %.2f (wire/compute %.2f): growing %d→%d",
			m.OverlapRatio, c.cfg.LowOverlap, m.StallShare, m.WireComputeRatio, c.cur, grown)
		c.act(m)
	case m.WireComputeRatio > 0 && m.WireComputeRatio < c.cfg.ComputeBound && c.cur > c.prior:
		shrunk := c.cur - 1
		d.Window, d.Changed = shrunk, true
		d.Reason = fmt.Sprintf("compute-bound (wire/compute %.2f): relaxing %d→%d toward prior %d",
			m.WireComputeRatio, c.cur, shrunk, c.prior)
		c.act(m)
	default:
		d.Reason = fmt.Sprintf("steady at window %d (overlap %.2f, stall %.2f, wire/compute %.2f)",
			c.cur, m.OverlapRatio, m.StallShare, m.WireComputeRatio)
	}
	c.cur = d.Window
	c.last = d
	return d
}

// act records the measurement a change was based on; the dead band is
// measured from here.
func (c *Controller) act(m Measurement) {
	c.acted = true
	c.actedOn = m
}

// withinDeadBand reports whether every signal is still within the
// hysteresis band around the measurement the controller last acted on:
// fractions (overlap, stall share) by absolute difference, the
// wire/compute ratio by relative difference.
func (c *Controller) withinDeadBand(m Measurement) bool {
	band := c.cfg.DeadBand
	if math.Abs(m.OverlapRatio-c.actedOn.OverlapRatio) > band {
		return false
	}
	if math.Abs(m.StallShare-c.actedOn.StallShare) > band {
		return false
	}
	ref := math.Abs(c.actedOn.WireComputeRatio)
	if ref < 1e-9 {
		return math.Abs(m.WireComputeRatio) <= band
	}
	return math.Abs(m.WireComputeRatio-c.actedOn.WireComputeRatio)/ref <= band
}
