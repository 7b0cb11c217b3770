// Package faultnet injects deterministic, seed-driven faults into
// net.Conn traffic so the multi-node transport (internal/mpinet) can be
// chaos-tested — and chaos-drilled live via `soinode -fault-plan` —
// without a real misbehaving fabric.
//
// A Plan describes what goes wrong on a link: added latency and jitter,
// bandwidth throttling, silently dropped writes, single-bit payload
// corruption, injected connection resets, partial writes that die
// mid-frame, and silent hangs (writes that block until the connection is
// closed or its write deadline passes). Every decision is drawn from a
// PRNG seeded by (Plan.Seed, link id), so a given plan replays the exact
// same fault sequence on every run — a failing chaos test is reproducible
// from its seed alone.
//
// Faults are injected on the write side only: a peer that stops writing
// is exactly what a hung, dead, or partitioned peer looks like to the
// reader on the other end, so write-side injection exercises both
// directions of the hardened transport.
package faultnet

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Plan is a per-link fault schedule. The zero value injects nothing.
// Probabilities are per Write call, rolled in the order hang, reset,
// partial, drop, corrupt; latency and throttling apply to writes that
// survive the rolls.
type Plan struct {
	Seed    int64         // PRNG seed; combined with the link id
	After   int           // arm faults only after this many writes on the link
	Latency time.Duration // fixed delay added to every armed write
	Jitter  time.Duration // extra uniform delay in [0, Jitter)
	// BandwidthBps throttles armed writes to this many bytes/second
	// (0 = unlimited).
	BandwidthBps float64
	DropProb     float64 // write claims success but sends nothing
	CorruptProb  float64 // one random bit of the write is flipped
	ResetProb    float64 // connection is torn down mid-operation
	HangProb     float64 // write blocks until close or write deadline
	// PartialProb writes a strict prefix of the buffer and then the link
	// dies (reset or hang, chosen by the PRNG) — the mid-frame failure
	// that checksums and deadlines must catch.
	PartialProb float64
}

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.Latency > 0 || p.Jitter > 0 || p.BandwidthBps > 0 ||
		p.DropProb > 0 || p.CorruptProb > 0 || p.ResetProb > 0 ||
		p.HangProb > 0 || p.PartialProb > 0
}

// String renders the plan in ParsePlan's key=value form.
func (p Plan) String() string {
	kv := map[string]string{}
	if p.Seed != 0 {
		kv["seed"] = strconv.FormatInt(p.Seed, 10)
	}
	if p.After != 0 {
		kv["after"] = strconv.Itoa(p.After)
	}
	if p.Latency != 0 {
		kv["latency"] = p.Latency.String()
	}
	if p.Jitter != 0 {
		kv["jitter"] = p.Jitter.String()
	}
	if p.BandwidthBps != 0 {
		kv["bw"] = strconv.FormatFloat(p.BandwidthBps, 'g', -1, 64)
	}
	for k, v := range map[string]float64{
		"drop": p.DropProb, "corrupt": p.CorruptProb, "reset": p.ResetProb,
		"hang": p.HangProb, "partial": p.PartialProb,
	} {
		if v != 0 {
			kv[k] = strconv.FormatFloat(v, 'g', -1, 64)
		}
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + kv[k]
	}
	return strings.Join(parts, ",")
}

// ParsePlan parses "seed=42,latency=2ms,corrupt=0.01"-style plans (the
// `soinode -fault-plan` syntax). Keys: seed, after, latency, jitter, bw,
// drop, corrupt, reset, hang, partial. An empty string is the zero Plan.
func ParsePlan(s string) (Plan, error) {
	var p Plan
	if strings.TrimSpace(s) == "" {
		return p, nil
	}
	for _, field := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return p, fmt.Errorf("faultnet: field %q is not key=value", field)
		}
		var err error
		switch k {
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "after":
			p.After, err = strconv.Atoi(v)
		case "latency":
			p.Latency, err = time.ParseDuration(v)
		case "jitter":
			p.Jitter, err = time.ParseDuration(v)
		case "bw":
			p.BandwidthBps, err = strconv.ParseFloat(v, 64)
		case "drop", "corrupt", "reset", "hang", "partial":
			var f float64
			f, err = strconv.ParseFloat(v, 64)
			if err == nil && (f < 0 || f > 1) {
				return p, fmt.Errorf("faultnet: %s=%v outside [0, 1]", k, f)
			}
			switch k {
			case "drop":
				p.DropProb = f
			case "corrupt":
				p.CorruptProb = f
			case "reset":
				p.ResetProb = f
			case "hang":
				p.HangProb = f
			case "partial":
				p.PartialProb = f
			}
		default:
			return p, fmt.Errorf("faultnet: unknown fault key %q", k)
		}
		if err != nil {
			return p, fmt.Errorf("faultnet: bad value for %s: %v", k, err)
		}
	}
	return p, nil
}

// LinkID folds two rank ids into a stable link identifier, so a mesh of
// soinode processes derives the same per-link PRNG stream on every run.
func LinkID(self, peer int) int64 {
	return int64(self)<<32 | int64(uint32(peer))
}

// ErrInjectedReset is the cause chained into write errors produced by
// reset and partial faults.
var ErrInjectedReset = fmt.Errorf("faultnet: injected connection reset")

// Conn wraps a net.Conn with the plan's faults. Create with Plan.Conn.
type Conn struct {
	net.Conn
	plan Plan

	mu        sync.Mutex
	rng       *rand.Rand
	writes    int
	wdeadline time.Time

	closed    chan struct{}
	closeOnce sync.Once
}

// Conn wraps c under the plan. id selects the link's deterministic PRNG
// stream (use LinkID for rank meshes). A disabled plan returns c as-is.
func (p Plan) Conn(c net.Conn, id int64) net.Conn {
	if !p.Enabled() {
		return c
	}
	return &Conn{
		Conn:   c,
		plan:   p,
		rng:    rand.New(rand.NewSource(p.Seed ^ int64(uint64(id+1)*0x9E3779B97F4A7C15))),
		closed: make(chan struct{}),
	}
}

// Close tears down the wrapper (unblocking injected hangs and sleeps)
// and the underlying connection.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// SetDeadline records the write half for hang bounding and passes both
// halves through.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetWriteDeadline records the deadline (injected hangs honor it, like a
// kernel write on a wedged socket would) and passes it through.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdeadline = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// roll draws this write's fault decisions under the lock, keeping the
// PRNG stream deterministic even with concurrent writers.
type decision struct {
	armed                bool
	hang, reset, partial bool
	drop, corrupt        bool
	partialLen           int
	partialHang          bool
	corruptBit           int
	delay                time.Duration
	deadline             time.Time
}

func (c *Conn) roll(n int) decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes++
	d := decision{deadline: c.wdeadline}
	if c.writes <= c.plan.After {
		return d
	}
	d.armed = true
	d.hang = c.plan.HangProb > 0 && c.rng.Float64() < c.plan.HangProb
	d.reset = c.plan.ResetProb > 0 && c.rng.Float64() < c.plan.ResetProb
	d.partial = c.plan.PartialProb > 0 && c.rng.Float64() < c.plan.PartialProb
	d.drop = c.plan.DropProb > 0 && c.rng.Float64() < c.plan.DropProb
	d.corrupt = c.plan.CorruptProb > 0 && c.rng.Float64() < c.plan.CorruptProb
	if d.partial && n > 1 {
		d.partialLen = 1 + c.rng.Intn(n-1)
		d.partialHang = c.rng.Intn(2) == 0
	}
	if d.corrupt && n > 0 {
		d.corruptBit = c.rng.Intn(n * 8)
	}
	d.delay = c.plan.Latency
	if c.plan.Jitter > 0 {
		d.delay += time.Duration(c.rng.Int63n(int64(c.plan.Jitter)))
	}
	if c.plan.BandwidthBps > 0 {
		d.delay += time.Duration(float64(n) / c.plan.BandwidthBps * float64(time.Second))
	}
	return d
}

// Write applies the plan, then forwards to the underlying connection.
func (c *Conn) Write(b []byte) (int, error) {
	d := c.roll(len(b))
	if !d.armed {
		return c.Conn.Write(b)
	}
	switch {
	case d.hang:
		return 0, c.hang(d.deadline)
	case d.reset:
		return 0, c.reset()
	case d.partial && d.partialLen > 0:
		n, err := c.Conn.Write(b[:d.partialLen])
		if err != nil {
			return n, err
		}
		if d.partialHang {
			return n, c.hang(d.deadline)
		}
		return n, c.reset()
	case d.drop:
		return len(b), nil
	}
	if d.corrupt {
		flipped := append([]byte(nil), b...)
		flipped[d.corruptBit/8] ^= 1 << (d.corruptBit % 8)
		b = flipped
	}
	if err := c.sleep(d.delay, d.deadline); err != nil {
		return 0, err
	}
	return c.Conn.Write(b)
}

// hang blocks like a wedged socket: until the connection is closed or
// the recorded write deadline passes.
func (c *Conn) hang(deadline time.Time) error {
	if deadline.IsZero() {
		<-c.closed
		return net.ErrClosed
	}
	t := time.NewTimer(time.Until(deadline))
	defer t.Stop()
	select {
	case <-c.closed:
		return net.ErrClosed
	case <-t.C:
		return os.ErrDeadlineExceeded
	}
}

// reset tears the connection down and reports it.
func (c *Conn) reset() error {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0) // RST instead of FIN, like a crashed peer
	}
	_ = c.Close()
	return ErrInjectedReset
}

// sleep waits for the injected latency, still honoring close and the
// write deadline.
func (c *Conn) sleep(d time.Duration, deadline time.Time) error {
	if d <= 0 {
		return nil
	}
	if !deadline.IsZero() {
		if rem := time.Until(deadline); rem < d {
			err := c.sleep(rem, time.Time{})
			if err == nil {
				err = os.ErrDeadlineExceeded
			}
			return err
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-c.closed:
		return net.ErrClosed
	case <-t.C:
		return nil
	}
}
