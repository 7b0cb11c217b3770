package gate_test

import (
	"bufio"
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soifft"
	"soifft/client"
	"soifft/internal/gate"
	"soifft/internal/serve"
)

// fakeReplica is a scripted wire peer: it answers every request with
// handle's response (or closes the connection when handle returns nil),
// recording what it saw. It lets the gateway tests pin failover
// semantics without real FFT work.
type fakeReplica struct {
	t  *testing.T
	ln net.Listener

	mu       sync.Mutex
	requests []*serve.Request
	handle   func(req *serve.Request) *serve.Response

	wg sync.WaitGroup
}

func newFakeReplica(t *testing.T, handle func(req *serve.Request) *serve.Response) *fakeReplica {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeReplica{t: t, ln: ln, handle: handle}
	f.wg.Add(1)
	go f.acceptLoop()
	t.Cleanup(f.close)
	return f
}

func (f *fakeReplica) addr() string { return f.ln.Addr().String() }

func (f *fakeReplica) close() {
	_ = f.ln.Close()
	f.wg.Wait()
}

func (f *fakeReplica) seen() []*serve.Request {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*serve.Request(nil), f.requests...)
}

func (f *fakeReplica) setHandle(h func(req *serve.Request) *serve.Response) {
	f.mu.Lock()
	f.handle = h
	f.mu.Unlock()
}

func (f *fakeReplica) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			defer conn.Close()
			br := bufio.NewReader(conn)
			bw := bufio.NewWriter(conn)
			for {
				req, err := serve.ReadRequest(br, 1<<22)
				if err != nil {
					return
				}
				f.mu.Lock()
				f.requests = append(f.requests, req)
				h := f.handle
				f.mu.Unlock()
				resp := h(req)
				if resp == nil {
					return // scripted connection kill
				}
				resp.Proto = req.Proto
				if err := serve.WriteResponse(bw, resp); err != nil {
					return
				}
				if err := bw.Flush(); err != nil {
					return
				}
			}
		}()
	}
}

// okEcho answers any transform with an OK echo of its payload.
func okEcho(req *serve.Request) *serve.Response {
	return &serve.Response{Status: serve.StatusOK, Data: req.Data}
}

// startGateway builds and runs a gateway over the given replica addrs.
func startGateway(t testing.TB, cfg gate.Config) *gate.Gateway {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 100 * time.Millisecond
	}
	g := gate.New(cfg)
	if err := g.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- g.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			t.Errorf("gateway shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("gateway serve: %v", err)
		}
	})
	return g
}

func specsOf(reps ...*fakeReplica) []gate.ReplicaSpec {
	var specs []gate.ReplicaSpec
	for _, r := range reps {
		specs = append(specs, gate.ReplicaSpec{Addr: r.addr()})
	}
	return specs
}

// TestGatewayProxiesAndTraceID checks the basic proxy path: a client
// request flows through the gateway to a replica and back, and the v2
// trace ID rides the forwarded header (trace passthrough).
func TestGatewayProxiesAndTraceID(t *testing.T) {
	rep := newFakeReplica(t, okEcho)
	g := startGateway(t, gate.Config{Replicas: specsOf(rep)})

	c, err := client.Dial(g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const traceID = 0xDEADBEEF12345678
	ctx := soifft.WithTraceID(context.Background(), soifft.TraceID(traceID))
	data := make([]complex128, 64)
	for i := range data {
		data[i] = complex(float64(i), -float64(i))
	}
	got, err := c.TransformContext(ctx, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) || got[3] != data[3] {
		t.Fatalf("echo mismatch: got %d points", len(got))
	}
	seen := rep.seen()
	if len(seen) == 0 {
		t.Fatal("replica saw no requests")
	}
	last := seen[len(seen)-1]
	if last.TraceID != uint64(traceID) {
		t.Errorf("replica saw trace ID %#x, want %#x (passthrough broken)", last.TraceID, uint64(traceID))
	}
	if last.Proto != serve.Version {
		t.Errorf("replica saw protocol v%d, want v%d", last.Proto, serve.Version)
	}
	if g.Metrics().Requests() == 0 {
		t.Error("gateway requests counter did not move")
	}
}

// primaryOf returns which of the two fake replicas the ring prefers
// for the default plan of length n (so tests can script the primary's
// behavior deterministically).
func primaryOf(t *testing.T, g *gate.Gateway, n int, reps ...*fakeReplica) (primary, other *fakeReplica) {
	t.Helper()
	addr := g.PrimaryFor(soifft.KeyOf(n))
	for i, r := range reps {
		if r.addr() == addr {
			return r, reps[(i+1)%len(reps)]
		}
	}
	t.Fatalf("primary %s is not one of the test replicas", addr)
	return nil, nil
}

// transformsSeen counts non-ping requests a fake replica handled
// (health probes ping, which is not traffic).
func transformsSeen(f *fakeReplica) int {
	n := 0
	for _, req := range f.seen() {
		if req.Op != serve.OpPing {
			n++
		}
	}
	return n
}

// TestGatewayFailoverOnDraining checks the failover contract: a replica
// answering StatusDraining is skipped to the next ring candidate, the
// request still succeeds, and the draining replica is marked so the
// next request avoids it outright.
func TestGatewayFailoverOnDraining(t *testing.T) {
	repA := newFakeReplica(t, okEcho)
	repB := newFakeReplica(t, okEcho)
	g := startGateway(t, gate.Config{
		Replicas:       specsOf(repA, repB),
		HealthInterval: time.Hour, // no periodic probes: passive signals only
	})
	const n = 32
	primary, _ := primaryOf(t, g, n, repA, repB)
	var drainingReqs atomic.Int64
	primary.setHandle(func(req *serve.Request) *serve.Response {
		if req.Op == serve.OpPing {
			return &serve.Response{Status: serve.StatusOK}
		}
		drainingReqs.Add(1)
		return &serve.Response{Status: serve.StatusDraining, RetryAfter: 5 * time.Millisecond, Msg: "draining"}
	})

	c, err := client.Dial(g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]complex128, n)
	for i := 0; i < 8; i++ {
		if _, err := c.Transform(data, nil); err != nil {
			t.Fatalf("request %d failed despite a healthy failover target: %v", i, err)
		}
	}
	// The first request hit the draining primary and failed over; the
	// markdown then keeps later requests off it entirely.
	if n := drainingReqs.Load(); n == 0 || n > 2 {
		t.Errorf("draining primary saw %d transform requests, want 1 (failover then markdown)", n)
	}
	if g.Metrics().Failovers() == 0 {
		t.Error("failovers counter did not move despite a draining primary")
	}
}

// TestGatewayFailoverOnConnKill checks transport-error failover: a
// replica that kills connections mid-request (reply never written)
// fails over to the healthy one and the request completes.
func TestGatewayFailoverOnConnKill(t *testing.T) {
	repA := newFakeReplica(t, okEcho)
	repB := newFakeReplica(t, okEcho)
	g := startGateway(t, gate.Config{
		Replicas:       specsOf(repA, repB),
		HealthInterval: time.Hour,
		AttemptTimeout: 2 * time.Second,
	})
	const n = 16
	killer, _ := primaryOf(t, g, n, repA, repB)
	killer.setHandle(func(req *serve.Request) *serve.Response { return nil })

	c, err := client.Dial(g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]complex128, n)
	for i := 0; i < 6; i++ {
		if _, err := c.Transform(data, nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// After downAfter consecutive transport failures the killer must be
	// marked down: from then on its request log stops growing.
	before := transformsSeen(killer)
	if before == 0 {
		t.Fatal("killer primary never saw a request; ring primary discovery is wrong")
	}
	for i := 0; i < 6; i++ {
		if _, err := c.Transform(data, nil); err != nil {
			t.Fatalf("request %d after markdown: %v", i, err)
		}
	}
	if after := transformsSeen(killer); after > before {
		t.Errorf("killed replica still receiving traffic after markdown: %d -> %d requests", before, after)
	}
	if g.Metrics().Failovers() == 0 {
		t.Error("failovers counter did not move")
	}
}

// TestGatewayOverloadedSpill checks bounded-load/backpressure spill: a
// replica answering StatusOverloaded is bypassed for one that isn't,
// without sleeping through the first pass.
func TestGatewayOverloadedSpill(t *testing.T) {
	over := newFakeReplica(t, func(req *serve.Request) *serve.Response {
		return &serve.Response{Status: serve.StatusOverloaded, RetryAfter: 10 * time.Millisecond, Msg: "queue full"}
	})
	healthy := newFakeReplica(t, okEcho)
	g := startGateway(t, gate.Config{
		Replicas:       specsOf(over, healthy),
		HealthInterval: time.Hour,
	})
	c, err := client.Dial(g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]complex128, 16)
	start := time.Now()
	if _, err := c.Transform(data, nil); err != nil {
		t.Fatalf("request failed despite a non-overloaded replica: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("spill took %v; should not sleep when a healthy replica has room", d)
	}
}

// TestGatewayAllOverloadedRelaysHint checks that when the whole tier is
// overloaded the client gets the typed rejection back with a retry
// hint, after one RetryAfter-aware backoff pass.
func TestGatewayAllOverloadedRelaysHint(t *testing.T) {
	mk := func() *fakeReplica {
		return newFakeReplica(t, func(req *serve.Request) *serve.Response {
			return &serve.Response{Status: serve.StatusOverloaded, RetryAfter: 7 * time.Millisecond, Msg: "queue full"}
		})
	}
	r1, r2 := mk(), mk()
	g := startGateway(t, gate.Config{
		Replicas:       specsOf(r1, r2),
		HealthInterval: time.Hour,
		MaxBackoff:     20 * time.Millisecond,
	})
	c, err := client.Dial(g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Transform(make([]complex128, 16), nil)
	if err == nil {
		t.Fatal("expected a typed overloaded error from a fully overloaded tier")
	}
	wait, ok := client.IsOverloaded(err)
	if !ok {
		t.Fatalf("got %v, want an overloaded ServerError", err)
	}
	if wait != 7*time.Millisecond {
		t.Errorf("retry hint %v not relayed from replicas (want 7ms)", wait)
	}
}

// TestGatewayPingAnsweredLocally checks OpPing terminates at the
// gateway (probes stay meaningful when the tier is down).
func TestGatewayPingAnsweredLocally(t *testing.T) {
	rep := newFakeReplica(t, okEcho)
	g := startGateway(t, gate.Config{Replicas: specsOf(rep), HealthInterval: time.Hour})
	c, err := client.Dial(g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Health probes legitimately ping the replica; the client's ping
	// must not add to that count.
	before := len(rep.seen())
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if after := len(rep.seen()); after != before {
		t.Errorf("client ping reached the replica (%d -> %d requests); should be answered by the gateway", before, after)
	}
}

// TestGatewayTenantQueueBackpressure checks admission control converts
// a flooding tenant's overflow into typed StatusOverloaded instead of
// queueing without bound.
func TestGatewayTenantQueueBackpressure(t *testing.T) {
	block := make(chan struct{})
	slow := newFakeReplica(t, func(req *serve.Request) *serve.Response {
		if req.Op == serve.OpPing {
			return &serve.Response{Status: serve.StatusOK}
		}
		<-block
		return okEcho(req)
	})
	defer close(block)
	g := startGateway(t, gate.Config{
		Replicas:       specsOf(slow),
		HealthInterval: time.Hour,
		MaxInflight:    1,
		TenantQueue:    1,
		RetryAfter:     5 * time.Millisecond,
		AttemptTimeout: 10 * time.Second,
	})

	data := make([]complex128, 8)
	// Fill the slot and the tenant queue with two stuck requests.
	for i := 0; i < 2; i++ {
		go func() {
			c, err := client.Dial(g.Addr().String())
			if err != nil {
				return
			}
			defer c.Close()
			_, _ = c.Transform(data, nil)
		}()
	}
	deadline := time.After(5 * time.Second)
	for g.Metrics().Requests() < 2 {
		select {
		case <-deadline:
			t.Fatal("stuck requests never admitted")
		case <-time.After(5 * time.Millisecond):
		}
	}

	c, err := client.Dial(g.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Transform(data, nil)
	if _, ok := client.IsOverloaded(err); !ok {
		t.Fatalf("third concurrent request got %v, want typed overloaded backpressure", err)
	}
	if g.Metrics().Rejected() == 0 {
		t.Error("tenant rejection counter did not move")
	}
}
