package telemetry

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"soifft/internal/instrument"
	"soifft/internal/trace"
)

// Conn is the subset of core.Comm the plane ships frames over: the
// point-to-point send of *mpinet.Proc, in process or on a mesh.
// Stat frames ride the same links as the transform, on their own
// control tag, so the plane needs no side channel.
type Conn interface {
	Rank() int
	Size() int
	Send(to, tag int, data []complex128) error
}

// Receiver is the root-side capability: a blocking receive of the next
// telemetry frame from one peer, returning the transport's typed error
// once the link is dead. Both transports implement it with a dedicated
// per-peer telemetry mailbox (frames arrive mid-transform, concurrently
// with halo/parity/stream receives on the same link, and must never be
// popped by — or steal a frame from — those consumers).
type Receiver interface {
	RecvTelemetry(from int) ([]complex128, error)
}

// LinkStatser is the optional per-link wire counter capability
// (*mpinet.Proc implements it, over either of its links).
type LinkStatser interface {
	LinkStats() []LinkStat
}

// Config assembles one rank's telemetry plane.
type Config struct {
	// Conn ships frames (and, via the optional Receiver/LinkStatser
	// capabilities, receives them on rank 0 and samples wire counters).
	Conn Conn
	// Recorder is the rank's stat source; nil yields frames with wire
	// stats only.
	Recorder *instrument.Recorder
	// Shape describes the transform for the explainer's model terms.
	Shape Shape
	// Interval enables periodic shipping mid-transform (0 = frames only
	// at end-of-transform and at Final).
	Interval time.Duration
	// FinalTimeout bounds how long Final waits for peers' final frames
	// before marking them stale (default 10s).
	FinalTimeout time.Duration
	// Tracer, when set, mirrors explainer findings as trace instant
	// events so Perfetto shows them on the timeline.
	Tracer  *trace.Tracer
	TraceID trace.ID
}

// Plane is one rank's handle on the telemetry plane. All methods are
// nil-safe no-ops, so execution paths hold an optional *Plane and guard
// with a single pointer test — the same contract as instrument.Recorder
// and trace.Tracer.
type Plane struct {
	cfg         Config
	rank, world int
	links       LinkStatser // Conn's capability, resolved once
	recv        Receiver    // Conn's capability, resolved once

	agg    *Aggregator // rank 0 only
	drains sync.WaitGroup

	seq      atomic.Uint64
	done     atomic.Bool // send path latched off (root gone or closed)
	sendMu   sync.Mutex
	stop     chan struct{}
	stopOnce sync.Once
}

// Start arms the plane on this rank: rank 0 begins draining peers'
// frames into its aggregator (one goroutine per peer link, each ending
// on the peer's final frame or its link's death), and every rank starts
// the periodic shipper when an interval is configured.
func Start(cfg Config) (*Plane, error) {
	if cfg.Conn == nil {
		return nil, fmt.Errorf("telemetry: Config.Conn is required")
	}
	if cfg.FinalTimeout <= 0 {
		cfg.FinalTimeout = 10 * time.Second
	}
	p := &Plane{
		cfg:   cfg,
		rank:  cfg.Conn.Rank(),
		world: cfg.Conn.Size(),
		stop:  make(chan struct{}),
	}
	p.links, _ = cfg.Conn.(LinkStatser)
	p.recv, _ = cfg.Conn.(Receiver)
	if p.rank == 0 {
		p.agg = NewAggregator(p.world)
		if p.recv != nil {
			for r := 1; r < p.world; r++ {
				p.drains.Add(1)
				go p.drain(r)
			}
		}
	}
	if cfg.Interval > 0 {
		go p.tick()
	}
	return p, nil
}

// drain pulls one peer's frame stream until its final frame or its
// link's death; an abnormal end freezes the rank as stale instead of
// blocking the aggregation.
func (p *Plane) drain(r int) {
	defer p.drains.Done()
	for {
		data, err := p.recv.RecvTelemetry(r)
		if err != nil {
			p.agg.MarkStale(r, err.Error())
			return
		}
		f, err := Unpack(data)
		if err != nil {
			p.agg.MarkStale(r, "undecodable stat frame: "+err.Error())
			return
		}
		p.agg.Observe(f)
		if f.Final {
			return
		}
	}
}

func (p *Plane) tick() {
	t := time.NewTicker(p.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.ship(false)
		case <-p.stop:
			return
		}
	}
}

// buildFrame packs this rank's current cumulative counters.
func (p *Plane) buildFrame(final bool) *StatFrame {
	f := &StatFrame{
		Rank:  p.rank,
		World: p.world,
		Seq:   p.seq.Add(1),
		Final: final,
		Shape: p.cfg.Shape,
	}
	f.Accumulate(p.cfg.Recorder.Snapshot())
	if p.links != nil {
		f.Links = p.links.LinkStats()
	}
	return f
}

// ship builds and delivers one frame: rank 0 folds it straight into the
// aggregator, other ranks send it to rank 0 on the telemetry tag. A
// failed send (root dead) latches the plane off — telemetry must never
// take the transform down with it.
func (p *Plane) ship(final bool) {
	if p == nil || p.done.Load() {
		return
	}
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	if p.done.Load() {
		return
	}
	f := p.buildFrame(final)
	if p.rank == 0 {
		p.agg.Observe(f)
		return
	}
	if err := p.cfg.Conn.Send(0, TagStat, f.Pack()); err != nil {
		p.done.Store(true)
	}
}

// OnTransformEnd ships a fresh frame after a completed transform — the
// hook core.RunDistributed's WithTelemetry option calls behind one
// pointer test.
func (p *Plane) OnTransformEnd() {
	if p == nil {
		return
	}
	p.ship(false)
}

// Snapshot returns the live aggregated cluster view with findings
// (rank 0; nil elsewhere) — the source for /debug/cluster and the
// periodic watch view.
func (p *Plane) Snapshot() *ClusterSnapshot {
	if p == nil || p.agg == nil {
		return nil
	}
	s := p.agg.Snapshot()
	Explain(s)
	return s
}

// Final ends the plane: every rank ships its final frame; rank 0 then
// waits (bounded by FinalTimeout) for peers' final frames, marks
// laggards stale, aggregates, runs the explainer, mirrors findings into
// the tracer as instant events, and returns the finished snapshot.
// Other ranks return nil.
func (p *Plane) Final() *ClusterSnapshot {
	if p == nil {
		return nil
	}
	p.ship(true)
	p.Close()
	if p.agg == nil {
		return nil
	}
	if p.recv != nil {
		done := make(chan struct{})
		go func() { p.drains.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(p.cfg.FinalTimeout):
			p.agg.markUnfinished(fmt.Sprintf("no final stat frame within %v", p.cfg.FinalTimeout))
		}
	}
	s := p.agg.Snapshot()
	Explain(s)
	if tr := p.cfg.Tracer; tr.Enabled() {
		for _, f := range s.Findings {
			tr.Instant(p.cfg.TraceID, f.Rank, "finding:"+f.Kind+": "+f.Detail)
		}
	}
	return s
}

// Close stops the periodic shipper and latches the send path off.
// Idempotent; Final calls it internally.
func (p *Plane) Close() {
	if p == nil {
		return
	}
	p.stopOnce.Do(func() { close(p.stop) })
}

// markUnfinished freezes every rank that neither finished nor already
// went stale — the bounded-wait fallback of Final.
func (a *Aggregator) markUnfinished(reason string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for r := range a.ranks {
		st := &a.ranks[r]
		if !st.final && !st.stale {
			st.stale = true
			st.staleReason = reason
		}
	}
}
