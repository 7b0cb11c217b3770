package gate

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"soifft"
	"soifft/internal/serve"
)

// Config tunes a Gateway. The zero value of every field selects a
// sensible default.
type Config struct {
	// Addr is the TCP listen address clients connect to (default
	// "127.0.0.1:7090").
	Addr string
	// Replicas is the initial replica set. SetReplicas updates it live
	// (file-based discovery in cmd/soigate goes through it).
	Replicas []ReplicaSpec
	// HealthInterval is the /healthz polling period (default 2s).
	HealthInterval time.Duration
	// VNodes is the number of ring points per replica (default 64).
	VNodes int
	// BoundedLoadFactor caps a replica's share of in-flight work at
	// factor × the healthy-replica average before the router spills a
	// key to the next ring candidate (default 1.25; <1 disables the
	// bound). Spill preserves liveness under hot keys at a bounded cost
	// to affinity.
	BoundedLoadFactor float64
	// AttemptTimeout bounds one proxied attempt to one replica: dial,
	// write, replica time, read (default 30s).
	AttemptTimeout time.Duration
	// MaxAttempts bounds total replica attempts per request, across
	// failover and backoff passes (default: replica count + 1).
	MaxAttempts int
	// MaxBackoff caps the RetryAfter-derived sleep between the first
	// and second routing pass (default 1s).
	MaxBackoff time.Duration
	// MaxInflight is the gateway-wide admission cap on concurrently
	// proxied requests (default 1024).
	MaxInflight int
	// TenantQueue caps one tenant's waiting requests; beyond it the
	// tenant gets typed StatusOverloaded backpressure (default 128).
	TenantQueue int
	// RetryAfter is the hint attached to gateway-level rejections
	// (default 50ms).
	RetryAfter time.Duration
	// MaxN rejects requests longer than this many points (default 2^22).
	MaxN int
	// MaxIdlePerReplica caps each replica pool's idle connections
	// (default 8).
	MaxIdlePerReplica int
	// IdleTimeout closes a client connection when no complete request
	// arrives within it (0 = no limit).
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response to a client (0 = no limit).
	WriteTimeout time.Duration
	// Dial opens replica connections (default: 5s TCP dial). Tests
	// substitute a faultnet-wrapping dialer to chaos a chosen link.
	Dial func(addr string) (net.Conn, error)
	// Logger receives structured connection- and routing-level records
	// (default: discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7090"
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = 2 * time.Second
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.BoundedLoadFactor == 0 {
		c.BoundedLoadFactor = 1.25
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 1024
	}
	if c.TenantQueue <= 0 {
		c.TenantQueue = 128
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 50 * time.Millisecond
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 22
	}
	if c.MaxIdlePerReplica <= 0 {
		c.MaxIdlePerReplica = 8
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 5*time.Second)
		}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Gateway is the serving-tier front door. Create with New, start with
// ListenAndServe (or Listen + Serve), stop with Shutdown.
type Gateway struct {
	cfg     Config
	reg     *registry
	adm     *admission
	metrics *Metrics

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool

	healthStop chan struct{}
	healthWG   sync.WaitGroup
	connWG     sync.WaitGroup
	inflight   sync.WaitGroup
}

// New builds a gateway over the configured replica set and starts its
// health loop immediately (every replica gets one synchronous probe so
// routing state is populated before the first request).
func New(cfg Config) *Gateway {
	cfg = cfg.withDefaults()
	g := &Gateway{
		cfg:        cfg,
		adm:        newAdmission(cfg.MaxInflight, cfg.TenantQueue),
		conns:      make(map[net.Conn]struct{}),
		healthStop: make(chan struct{}),
	}
	g.reg = newRegistry(cfg.VNodes, cfg.MaxIdlePerReplica, cfg.Dial)
	g.metrics = newMetrics(g)
	g.reg.update(cfg.Replicas)
	g.probeAll()
	g.healthWG.Add(1)
	go g.healthLoop()
	return g
}

// Metrics exposes the gateway's live counters.
func (g *Gateway) Metrics() *Metrics { return g.metrics }

// SetReplicas reconciles the replica set (file-based discovery). New
// replicas are probed immediately.
func (g *Gateway) SetReplicas(specs []ReplicaSpec) {
	added, removed := g.reg.update(specs)
	if added > 0 || removed > 0 {
		g.cfg.Logger.Info("replica set updated", "added", added, "removed", removed, "size", len(specs))
		g.probeAll()
	}
}

// PrimaryFor returns the ring primary for the plan key — the replica a
// healthy, unloaded tier routes the key to (tests and /debug/ring use
// it; routing itself may spill or fail over).
func (g *Gateway) PrimaryFor(key soifft.PlanKey) string {
	cands := g.reg.candidates(key.String())
	if len(cands) == 0 {
		return ""
	}
	return cands[0]
}

// probeTimeout bounds one health probe: the polling period, capped at
// 2s so a sparse polling schedule doesn't imply a patient probe.
func (g *Gateway) probeTimeout() time.Duration {
	if g.cfg.HealthInterval < 2*time.Second {
		return g.cfg.HealthInterval
	}
	return 2 * time.Second
}

func (g *Gateway) probeAll() {
	to := g.probeTimeout()
	hc := &http.Client{Timeout: to}
	var wg sync.WaitGroup
	for _, r := range g.reg.all() {
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			g.reg.probe(r, hc, to)
		}(r)
	}
	wg.Wait()
}

// healthLoop re-probes the replica set forever. Both the period and the
// per-replica probe launch are jittered: gateways restarted together
// (a fleet rollout) would otherwise align their probes into
// synchronized bursts that hit every replica at the same instant. The
// period wanders ±1/5 around the configured interval, and within each
// round every replica's probe starts at an independent random offset
// inside a window of at most interval/5 (capped at 2s).
func (g *Gateway) healthLoop() {
	defer g.healthWG.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	t := time.NewTimer(jitteredInterval(g.cfg.HealthInterval, rng))
	defer t.Stop()
	for {
		select {
		case <-g.healthStop:
			return
		case <-t.C:
			g.probeStaggered(rng)
			t.Reset(jitteredInterval(g.cfg.HealthInterval, rng))
		}
	}
}

// jitteredInterval spreads d uniformly over [4d/5, 6d/5].
func jitteredInterval(d time.Duration, rng *rand.Rand) time.Duration {
	j := d / 5
	if j <= 0 {
		return d
	}
	return d - j + time.Duration(rng.Int63n(int64(2*j)+1))
}

// probeStaggered is the periodic sibling of probeAll: same fan-out, but
// each replica's probe is delayed by a random offset so one round does
// not land on every replica simultaneously. The synchronous probeAll
// stays un-staggered — New and SetReplicas need routing state now.
func (g *Gateway) probeStaggered(rng *rand.Rand) {
	to := g.probeTimeout()
	hc := &http.Client{Timeout: to}
	window := g.cfg.HealthInterval / 5
	if window > 2*time.Second {
		window = 2 * time.Second
	}
	var wg sync.WaitGroup
	for _, r := range g.reg.all() {
		delay := time.Duration(rng.Int63n(int64(window) + 1))
		wg.Add(1)
		go func(r *replica, delay time.Duration) {
			defer wg.Done()
			select {
			case <-time.After(delay):
			case <-g.healthStop:
				return
			}
			g.reg.probe(r, hc, to)
		}(r, delay)
	}
	wg.Wait()
}

// Listen binds the configured address.
func (g *Gateway) Listen() error {
	ln, err := net.Listen("tcp", g.cfg.Addr)
	if err != nil {
		return err
	}
	g.mu.Lock()
	g.ln = ln
	g.mu.Unlock()
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (g *Gateway) Addr() net.Addr {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ln == nil {
		return nil
	}
	return g.ln.Addr()
}

// ListenAndServe binds cfg.Addr and runs the accept loop until Shutdown.
func (g *Gateway) ListenAndServe() error {
	if err := g.Listen(); err != nil {
		return err
	}
	return g.Serve()
}

// Serve runs the accept loop. It returns nil after Shutdown closes the
// listener.
func (g *Gateway) Serve() error {
	g.mu.Lock()
	ln := g.ln
	g.mu.Unlock()
	if ln == nil {
		return errors.New("gate: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			g.mu.Lock()
			draining := g.draining
			g.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		g.mu.Lock()
		if g.draining {
			g.mu.Unlock()
			_ = conn.Close()
			continue
		}
		g.conns[conn] = struct{}{}
		g.mu.Unlock()
		g.connWG.Add(1)
		go g.handleConn(conn)
	}
}

func (g *Gateway) handleConn(conn net.Conn) {
	defer g.connWG.Done()
	defer func() {
		g.mu.Lock()
		delete(g.conns, conn)
		g.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReader(&countingReader{r: conn, n: &g.metrics.bytesIn})
	bw := bufio.NewWriter(&countingWriter{w: conn, n: &g.metrics.bytesOut})
	writeResp := func(resp *serve.Response) error {
		if g.cfg.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(g.cfg.WriteTimeout))
		}
		if err := serve.WriteResponse(bw, resp); err != nil {
			return err
		}
		return bw.Flush()
	}
	tenant := tenantOf(conn.RemoteAddr())
	log := g.cfg.Logger.With("remote", conn.RemoteAddr().String(), "tenant", tenant)
	for {
		if g.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(g.cfg.IdleTimeout))
		}
		req, err := serve.ReadRequest(br, g.cfg.MaxN)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				log.Warn("request read failed", "err", err)
				_ = writeResp(&serve.Response{Status: serve.StatusBadRequest, Msg: err.Error()})
			}
			return
		}
		g.mu.Lock()
		if g.draining {
			g.mu.Unlock()
			_ = writeResp(&serve.Response{
				Status: serve.StatusDraining, RetryAfter: g.cfg.RetryAfter,
				Msg: "gateway is draining", Proto: req.Proto,
			})
			serve.Release(req.Data)
			return
		}
		g.inflight.Add(1)
		g.mu.Unlock()

		resp := g.process(req, tenant, log)
		resp.Proto = req.Proto // echo the client's wire version
		err = writeResp(resp)
		// Both payloads were read here and every frame carrying them is
		// written (failover re-sends req.Data, so it goes only now).
		serve.Release(req.Data)
		serve.Release(resp.Data)
		g.inflight.Done()
		if err != nil {
			log.Warn("response write failed", "err", err)
			return
		}
	}
}

// process admits and routes one request, returning the response to
// relay. All gateway-level rejections reuse the replicas' typed
// statuses, so clients see one backpressure vocabulary end to end.
func (g *Gateway) process(req *serve.Request, tenant string, log *slog.Logger) *serve.Response {
	start := time.Now()
	g.metrics.requests.Add(1)
	defer func() { g.metrics.latTotal.observe(time.Since(start)) }()

	if req.Op == serve.OpPing {
		// The gateway is the ping's destination: answering locally keeps
		// probes meaningful when every replica is down.
		g.metrics.pings.Add(1)
		return &serve.Response{Status: serve.StatusOK}
	}
	if req.N <= 0 || len(req.Data) != req.N {
		g.metrics.errors.Add(1)
		return &serve.Response{Status: serve.StatusBadRequest,
			Msg: fmt.Sprintf("payload has %d points, header says n=%d", len(req.Data), req.N)}
	}

	// Per-tenant admission: a slot under the global cap, granted fairly
	// across tenants. The wait is bounded by the attempt timeout so a
	// stalled tier converts to typed backpressure, not a hang.
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.AttemptTimeout)
	release, err := g.adm.admit(ctx, tenant)
	cancel()
	if err != nil {
		g.metrics.rejectedTenant.Add(1)
		msg := "admission queue full for tenant"
		if !errors.Is(err, ErrTenantOverloaded) {
			msg = "admission wait timed out"
		}
		return &serve.Response{Status: serve.StatusOverloaded, RetryAfter: g.cfg.RetryAfter, Msg: msg}
	}
	defer release()
	return g.route(req, log)
}

// route consistent-hashes the request's PlanKey onto the ring and walks
// the candidate order: the primary first (affinity), spilling past
// replicas over their load bound, skipping unhealthy ones, and failing
// over on transport errors and draining replies. If the first pass ends
// with only backpressure, one RetryAfter-aware jittered backoff buys a
// second pass before the rejection is relayed.
func (g *Gateway) route(req *serve.Request, log *slog.Logger) *serve.Response {
	key := planKeyOf(req)
	cands := g.reg.candidates(key.String())
	if len(cands) == 0 {
		g.metrics.rejectedNoRep.Add(1)
		return &serve.Response{Status: serve.StatusOverloaded, RetryAfter: g.cfg.RetryAfter,
			Msg: "no replicas configured"}
	}
	maxAttempts := g.cfg.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = len(cands) + 1
	}

	// Forward in the current wire version regardless of what the client
	// spoke: v2 carries the trace ID through, and the response Proto is
	// restored for the client by the caller.
	fwd := *req
	fwd.Proto = serve.Version

	var lastResp *serve.Response
	var lastHint time.Duration
	attempt := 0
	for pass := 0; pass < 2 && attempt < maxAttempts; pass++ {
		if pass == 1 {
			// RetryAfter-aware backoff: honor the strongest hint the tier
			// gave us, with full jitter, capped.
			hint := lastHint
			if hint <= 0 {
				hint = g.cfg.RetryAfter
			}
			if hint > g.cfg.MaxBackoff {
				hint = g.cfg.MaxBackoff
			}
			g.metrics.backoffs.Add(1)
			time.Sleep(jitter(hint))
		}
		order, primaryOverloaded := g.routeOrder(cands)
		for _, r := range order {
			if attempt >= maxAttempts {
				break
			}
			if attempt == 0 {
				g.metrics.routedFirst.Add(1)
				switch {
				case r.addr == cands[0]:
					g.metrics.primaryRoutes.Add(1)
				case primaryOverloaded:
					g.metrics.spills.Add(1)
				default:
					g.metrics.unhealthySkips.Add(1)
				}
			} else {
				g.metrics.failovers.Add(1)
			}
			attempt++
			resp, err := g.attempt(r, &fwd)
			if err != nil {
				log.Warn("replica attempt failed", "replica", r.addr, "err", err, "attempt", attempt)
				continue
			}
			switch resp.Status {
			case serve.StatusDraining:
				r.noteDraining()
				lastResp, lastHint = resp, resp.RetryAfter
				log.Info("replica draining, failing over", "replica", r.addr)
				continue
			case serve.StatusOverloaded:
				lastResp, lastHint = resp, resp.RetryAfter
				continue
			default:
				// OK, BadRequest and Internal are authoritative: retrying a
				// malformed or failed transform elsewhere cannot help.
				return resp
			}
		}
	}
	g.metrics.errors.Add(1)
	if lastResp != nil {
		return lastResp
	}
	return &serve.Response{Status: serve.StatusOverloaded, RetryAfter: g.cfg.RetryAfter,
		Msg: "no healthy replica"}
}

// routeOrder filters the ring candidates down to routable replicas:
// healthy ones under the bounded-load limit in ring order first, then
// healthy-but-over-bound ones (never rejecting solely for load). It
// also reports whether the primary was healthy but diverted by load —
// the spill-vs-unhealthy accounting routing metrics use.
func (g *Gateway) routeOrder(cands []string) (order []*replica, primaryOverloaded bool) {
	healthyN, totalInflight := g.reg.healthyCount()
	bound := int64(-1)
	if g.cfg.BoundedLoadFactor >= 1 && healthyN > 0 {
		avg := float64(totalInflight+1) / float64(healthyN)
		bound = int64(g.cfg.BoundedLoadFactor*avg) + 1
	}
	var over []*replica
	for i, addr := range cands {
		r := g.reg.get(addr)
		if r == nil || r.getState() != StateHealthy {
			continue
		}
		if bound >= 0 && r.inflight.Load() >= bound {
			if i == 0 {
				primaryOverloaded = true
			}
			over = append(over, r)
			continue
		}
		order = append(order, r)
	}
	return append(order, over...), primaryOverloaded
}

// attempt proxies one request to one replica through its pool,
// recording load, latency and failure state.
func (g *Gateway) attempt(r *replica, req *serve.Request) (*serve.Response, error) {
	g.metrics.proxied.Add(1)
	r.routed.Add(1)
	r.inflight.Add(1)
	start := time.Now()
	resp, dialFailed, err := r.pool.do(req, g.cfg.AttemptTimeout, g.cfg.MaxN)
	r.inflight.Add(-1)
	r.lat.observe(time.Since(start))
	if err != nil {
		r.noteFailure(err, dialFailed)
		return nil, err
	}
	r.noteSuccess()
	return resp, nil
}

// Shutdown stops the gateway: the health loop exits, the listener
// closes, in-flight requests get their responses, then connections and
// pools are torn down. If ctx expires first, connections are severed
// and ctx's error returned.
func (g *Gateway) Shutdown(ctx context.Context) error {
	g.mu.Lock()
	if g.draining {
		g.mu.Unlock()
		return nil
	}
	g.draining = true
	ln := g.ln
	g.mu.Unlock()
	close(g.healthStop)
	g.healthWG.Wait()
	if ln != nil {
		_ = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		g.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	g.mu.Lock()
	for c := range g.conns {
		_ = c.Close()
	}
	g.mu.Unlock()
	if err == nil {
		g.connWG.Wait()
	}
	g.reg.closeAll()
	return err
}

// noteSuccess clears the consecutive-failure count after any decoded
// response (a stale pooled connection error must not accumulate into a
// down-marking across otherwise healthy traffic).
func (r *replica) noteSuccess() {
	r.mu.Lock()
	r.fails = 0
	r.mu.Unlock()
}

// planKeyOf resolves the request's parameters to the canonical plan key
// exactly as the replica's plan cache would (same defaulting rules), so
// the ring and the replicas agree on what "the same plan" means.
func planKeyOf(req *serve.Request) soifft.PlanKey {
	var opts []soifft.Option
	if req.Segments > 0 {
		opts = append(opts, soifft.WithSegments(req.Segments))
	}
	if req.Mu > 0 && req.Nu > 0 {
		opts = append(opts, soifft.WithOversampling(req.Mu, req.Nu))
	}
	if req.Accuracy >= 0 {
		opts = append(opts, soifft.WithAccuracy(soifft.Accuracy(req.Accuracy)))
	} else if req.Taps > 0 {
		opts = append(opts, soifft.WithTaps(req.Taps))
	}
	return soifft.KeyOf(req.N, opts...)
}

// jitter spreads d over [d/2, d) so synchronized retries desynchronize.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)/2))
}

// tenantOf maps a client address to its admission-control tenant (the
// remote host; every connection from one host shares one fair-queue
// lane).
func tenantOf(addr net.Addr) string {
	host, _, err := net.SplitHostPort(addr.String())
	if err != nil {
		return addr.String()
	}
	return host
}

// countingReader counts bytes read into the metrics.
type countingReader struct {
	r io.Reader
	n *atomic.Int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// countingWriter counts bytes written into the metrics.
type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n.Add(int64(n))
	return n, err
}
