package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"soifft"
	"soifft/client"
	"soifft/internal/serve"
	"soifft/internal/signal"
	"soifft/internal/telemetry"
)

// startServer binds an ephemeral port and runs the accept loop,
// shutting the server down at test end.
func startServer(t *testing.T, cfg serve.Config) *serve.Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := serve.New(cfg)
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return s
}

func dial(t *testing.T, s *serve.Server) *client.Client {
	t.Helper()
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// relErr is the L2 relative error between two complex vectors.
func relErr(got, ref []complex128) float64 { return signal.RelErrL2(got, ref) }

// TestConcurrentClientsBatching is the serving-shape test: M goroutines
// submit same-shape requests; every answer must match soifft.FFT within
// the plan's PredictedDigits, at least one multi-request batch must
// form, and the plan cache must show a >= 90% hit rate after warmup.
func TestConcurrentClientsBatching(t *testing.T) {
	const (
		n        = 1024
		clients  = 8
		perConn  = 5
		segments = 8
		taps     = 32
	)
	s := startServer(t, serve.Config{
		Workers:   2,
		MaxBatch:  4,
		MaxLinger: 50 * time.Millisecond,
	})
	opt := &client.Options{Segments: segments, Taps: taps}

	// Warm the plan (the one cold build the cache amortizes).
	warm := dial(t, s)
	src := signal.Random(n, 7)
	if _, err := warm.Transform(src, opt); err != nil {
		t.Fatal(err)
	}

	plan, err := soifft.NewPlan(n, soifft.WithSegments(segments), soifft.WithTaps(taps))
	if err != nil {
		t.Fatal(err)
	}
	tol := math.Pow(10, -(plan.PredictedDigits() - 1))
	ref, err := soifft.FFT(src)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*perConn)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(s.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for k := 0; k < perConn; k++ {
				got, err := c.Transform(src, opt)
				if err != nil {
					errs <- err
					return
				}
				if e := relErr(got, ref); e > tol {
					errs <- fmt.Errorf("rel err %.3e exceeds tolerance %.3e", e, tol)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := s.Metrics().Requests(); got != clients*perConn+1 {
		t.Errorf("requests_total = %d, want %d", got, clients*perConn+1)
	}
	if max := s.Metrics().MaxBatch(); max < 2 {
		t.Errorf("no multi-request batch formed (max batch %d)", max)
	}
	st := s.Cache().Stats()
	if st.Misses != 1 {
		t.Errorf("plan built %d times, want 1", st.Misses)
	}
	if rate := st.HitRate(); rate < 0.9 {
		t.Errorf("plan cache hit rate %.2f after warmup, want >= 0.90", rate)
	}
}

// TestInverseAndAccuracyRung covers the inverse direction and
// accuracy-rung plan addressing through the service.
func TestInverseAndAccuracyRung(t *testing.T) {
	const n = 1024
	s := startServer(t, serve.Config{MaxLinger: time.Millisecond})
	c := dial(t, s)
	src := signal.Random(n, 3)

	acc := soifft.Accuracy230dB
	opt := &client.Options{Segments: 8, Accuracy: acc, UseAccuracy: true}
	spec, err := c.Transform(src, opt)
	if err != nil {
		t.Fatal(err)
	}
	back, err := c.Inverse(spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(back, src); e > 1e-8 {
		t.Errorf("service round trip rel err %.3e", e)
	}
	// Forward and inverse share one cached plan.
	if st := s.Cache().Stats(); st.Size != 1 || st.Misses != 1 {
		t.Errorf("cache after fwd+inv: %+v", st)
	}
}

// TestBackpressure fills a one-deep queue and checks that overflow gets
// a typed retryable rejection rather than blocking, and that the server
// keeps serving afterwards. An execution hook parks the worker so the
// queue is deterministically occupied when the overflow request lands.
func TestBackpressure(t *testing.T) {
	const n = 4096
	s := startServer(t, serve.Config{
		Workers:    1,
		MaxBatch:   1,
		QueueDepth: 1,
	})
	opt := &client.Options{Segments: 8, Taps: 48}
	// Warm the plan before installing the hook.
	if _, err := dial(t, s).Transform(signal.Random(n, 1), opt); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	s.SetExecHook(func() { <-release })

	// Occupy the only queue slot: this request is admitted and its
	// batch handed to the (parked) worker, so queue depth stays 1.
	src := signal.Random(n, 2)
	occupier := dial(t, s)
	occupierDone := make(chan error, 1)
	go func() {
		_, err := occupier.Transform(src, opt)
		occupierDone <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.Metrics().Requests() < 2 { // warm + occupier admitted
		if time.Now().After(deadline) {
			t.Fatal("occupier request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// Overflow: with the slot held, this must be rejected, typed and
	// with a retry hint — not blocked.
	_, err := dial(t, s).Transform(src, opt)
	if err == nil {
		t.Fatal("overflow request succeeded with a full queue")
	}
	wait, isOver := client.IsOverloaded(err)
	if !isOver || wait <= 0 {
		t.Fatalf("overflow error = %v, want typed overloaded with retry-after", err)
	}
	if got := s.Metrics().Rejected(); got != 1 {
		t.Errorf("rejected_total = %d, want 1", got)
	}

	// Release the worker: the occupied request completes normally and
	// the retry helper rides out any residual backpressure.
	close(release)
	if err := <-occupierDone; err != nil {
		t.Errorf("occupier request failed: %v", err)
	}
	c := dial(t, s)
	if _, err := c.TransformRetry(context.Background(), src, opt, 5); err != nil {
		t.Errorf("retry after backpressure: %v", err)
	}
}

// TestGracefulDrain checks the shutdown contract: every accepted
// request completes with an OK response (no connection reset), and
// requests arriving after drain begins get StatusDraining.
func TestGracefulDrain(t *testing.T) {
	const n = 4096
	cfg := serve.Config{
		Workers:   2,
		MaxBatch:  16,
		MaxLinger: 300 * time.Millisecond, // park requests in the linger window
	}
	cfg.Addr = "127.0.0.1:0"
	s := serve.New(cfg)
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve() }()

	opt := &client.Options{Segments: 8, Taps: 32}
	// Warm the plan so in-flight requests sit in the batcher, not a build.
	wc, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Transform(signal.Random(n, 1), opt); err != nil {
		t.Fatal(err)
	}

	const loaded = 4
	src := signal.Random(n, 9)
	results := make(chan error, loaded)
	conns := make([]*client.Client, loaded)
	for i := range conns {
		c, err := client.Dial(s.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c
	}
	for _, c := range conns {
		go func(c *client.Client) {
			_, err := c.Transform(src, opt)
			results <- err
		}(c)
	}
	// Give the requests time to be accepted into the linger window,
	// then pull the plug while they are in flight.
	time.Sleep(100 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i := 0; i < loaded; i++ {
		if err := <-results; err != nil {
			t.Errorf("accepted request failed during drain: %v", err)
		}
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve returned %v", err)
	}

	// A request on a surviving connection now reports draining (or the
	// connection is already closed — never a silent wrong answer).
	if _, err := wc.Transform(src, opt); err == nil {
		t.Error("post-drain request succeeded")
	}
	for _, c := range conns {
		c.Close()
	}
	wc.Close()
}

// TestBadRequestAndPing covers validation failures and the health probe.
func TestBadRequestAndPing(t *testing.T) {
	s := startServer(t, serve.Config{})
	c := dial(t, s)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	// Segments that do not divide N are unplannable.
	_, err := c.Transform(make([]complex128, 1000), &client.Options{Segments: 7})
	if err == nil {
		t.Fatal("unplannable request succeeded")
	}
	if _, isOver := client.IsOverloaded(err); isOver || client.IsDraining(err) {
		t.Fatalf("validation failure mapped to wrong status: %v", err)
	}
}

// TestMetricsEndpoints scrapes /debug/vars and /healthz.
func TestMetricsEndpoints(t *testing.T) {
	const n = 512
	s := startServer(t, serve.Config{MaxLinger: time.Millisecond})
	c := dial(t, s)
	if _, err := c.Transform(signal.Random(n, 1), &client.Options{Segments: 4, Taps: 24}); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Metrics().Handler())
	defer ts.Close()

	res, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != 200 {
		t.Errorf("healthz status %d", res.StatusCode)
	}
	// The body carries the health detail the gateway's prober reads:
	// status, draining flag, queue depth and warm-plan count.
	var h serve.Health
	if err := json.NewDecoder(res.Body).Decode(&h); err != nil {
		t.Fatalf("healthz body is not JSON: %v", err)
	}
	res.Body.Close()
	if h.Status != "ok" || h.Draining {
		t.Errorf("healthz body = %+v, want status ok and not draining", h)
	}
	if h.WarmPlans != 1 {
		t.Errorf("healthz warm_plans = %d, want 1 (one plan resolved)", h.WarmPlans)
	}

	res, err = ts.Client().Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var vars struct {
		Soiserve struct {
			Requests  int64          `json:"requests_total"`
			BytesIn   int64          `json:"bytes_in"`
			BytesOut  int64          `json:"bytes_out"`
			BatchHist map[string]any `json:"batch_size_hist"`
			PlanCache struct {
				Misses  uint64                 `json:"misses"`
				PerPlan map[string]interface{} `json:"per_plan"`
			} `json:"plan_cache"`
		} `json:"soiserve"`
	}
	if err := json.NewDecoder(res.Body).Decode(&vars); err != nil {
		t.Fatalf("debug/vars is not JSON: %v", err)
	}
	sv := vars.Soiserve
	if sv.Requests != 1 || sv.BytesIn == 0 || sv.BytesOut == 0 {
		t.Errorf("counters: requests=%d in=%d out=%d", sv.Requests, sv.BytesIn, sv.BytesOut)
	}
	if sv.PlanCache.Misses != 1 || len(sv.PlanCache.PerPlan) != 1 {
		t.Errorf("plan cache vars: %+v", sv.PlanCache)
	}
}

// TestPrometheusEndpoint scrapes /metrics on an instrumented server:
// the soiserve_* counters must reflect the request, and the resolved
// plan's own soifft_* pipeline counters must appear under its key label.
func TestPrometheusEndpoint(t *testing.T) {
	const n = 512
	s := startServer(t, serve.Config{
		MaxLinger:  time.Millisecond,
		Instrument: soifft.InstrumentCounters,
	})
	c := dial(t, s)
	if _, err := c.Transform(signal.Random(n, 1), &client.Options{Segments: 4, Taps: 24}); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(s.Metrics().Handler())
	defer ts.Close()
	res, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("/metrics status %d", res.StatusCode)
	}
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"soiserve_requests_total 1",
		"# TYPE soiserve_requests_total counter",
		"soiserve_queue_depth",
		`soifft_transforms_total{plan="n=512 p=4 mu=5 nu=4 b=24"} 1`,
		`soifft_stage_calls_total{plan="n=512 p=4 mu=5 nu=4 b=24",stage="convolve"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n---\n%s", want, body)
		}
	}

	// pprof must be mounted on the same mux.
	res, err = ts.Client().Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Errorf("/debug/pprof/cmdline status %d", res.StatusCode)
	}
}

// TestDebugClusterEndpoint: /debug/cluster answers 404 on an
// uninstrumented server and serves the single-replica
// soifft-cluster/v1 snapshot — one rank carrying the summed plan
// counters — once the server instruments its plans.
func TestDebugClusterEndpoint(t *testing.T) {
	const n = 512
	bare := startServer(t, serve.Config{MaxLinger: time.Millisecond})
	cb := dial(t, bare)
	if _, err := cb.Transform(signal.Random(n, 1), &client.Options{Segments: 4, Taps: 24}); err != nil {
		t.Fatal(err)
	}
	tb := httptest.NewServer(bare.Metrics().Handler())
	defer tb.Close()
	res, err := tb.Client().Get(tb.URL + "/debug/cluster")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 404 {
		t.Errorf("uninstrumented /debug/cluster status = %d, want 404", res.StatusCode)
	}

	inst := startServer(t, serve.Config{
		MaxLinger:  time.Millisecond,
		Instrument: soifft.InstrumentTimers,
	})
	ci := dial(t, inst)
	if _, err := ci.Transform(signal.Random(n, 1), &client.Options{Segments: 4, Taps: 24}); err != nil {
		t.Fatal(err)
	}
	ti := httptest.NewServer(inst.Metrics().Handler())
	defer ti.Close()
	res, err = ti.Client().Get(ti.URL + "/debug/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("instrumented /debug/cluster status = %d, want 200", res.StatusCode)
	}
	var snap telemetry.ClusterSnapshot
	if err := json.NewDecoder(res.Body).Decode(&snap); err != nil {
		t.Fatalf("cluster body is not JSON: %v", err)
	}
	if snap.Schema != telemetry.SnapshotSchema || snap.World != 1 || len(snap.Ranks) != 1 {
		t.Fatalf("snapshot schema=%q world=%d ranks=%d, want %q/1/1",
			snap.Schema, snap.World, len(snap.Ranks), telemetry.SnapshotSchema)
	}
	r0 := snap.Ranks[0]
	if !r0.Reported || r0.Transforms != 1 {
		t.Errorf("rank 0 reported=%v transforms=%d, want true/1", r0.Reported, r0.Transforms)
	}
	if r0.StageNs["convolve"] <= 0 {
		t.Errorf("convolve stage ns = %d, want > 0 with timers on", r0.StageNs["convolve"])
	}
	if snap.Shape.N != n {
		t.Errorf("snapshot shape N = %d, want %d", snap.Shape.N, n)
	}
}

// TestClientContext: a context cancelled before the request returns the
// context's error without poisoning the connection (nothing was sent),
// and the context-aware verbs work when the context is live.
func TestClientContext(t *testing.T) {
	const n = 512
	s := startServer(t, serve.Config{MaxLinger: time.Millisecond})
	c := dial(t, s)
	opt := &client.Options{Segments: 4, Taps: 24}
	src := signal.Random(n, 1)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.TransformContext(cancelled, src, opt); err != context.Canceled {
		t.Errorf("pre-cancelled TransformContext: %v, want context.Canceled", err)
	}
	if err := c.PingContext(cancelled); err != context.Canceled {
		t.Errorf("pre-cancelled PingContext: %v, want context.Canceled", err)
	}

	// The connection never carried the cancelled request, so it still works.
	if err := c.PingContext(context.Background()); err != nil {
		t.Fatalf("ping after cancelled request: %v", err)
	}
	got, err := c.TransformContext(context.Background(), src, opt)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := soifft.FFT(src)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErr(got, ref); re > 1e-3 {
		t.Errorf("TransformContext answer off: rel err %g", re)
	}
}

// TestServeSteadyStateAllocBytes is the serving twin of core's
// TestRunDistributedSteadyStateAllocBytes: once warm, a direct client →
// replica round trip allocates the caller's result and a few kilobytes
// of per-request bookkeeping — every frame's payload is recycled.
func TestServeSteadyStateAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocations and dropped pool puts are not the steady state")
	}
	const n, ops = 4096, 200
	s := startServer(t, serve.Config{})
	c := dial(t, s)
	src := signal.Random(n, 11)
	for i := 0; i < 5; i++ {
		if _, err := c.Transform(src, nil); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		if _, err := c.Transform(src, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perOp := (after.TotalAlloc - before.TotalAlloc) / ops
	t.Logf("n=%d: %d bytes/request", n, perOp)
	if limit := uint64(16*n + 8<<10); perOp > limit {
		t.Errorf("%d bytes/request, want ≤ %d (the result plus 8 KB)", perOp, limit)
	}
}
