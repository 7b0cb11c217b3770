package serve

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"soifft"
	"soifft/internal/trace"
)

// Config tunes a Server. The zero value of every field selects a
// sensible default.
type Config struct {
	// Addr is the TCP listen address for ListenAndServe (default
	// "127.0.0.1:7080").
	Addr string
	// CacheCapacity bounds the plan cache (default 32 plans).
	CacheCapacity int
	// Workers bounds the goroutines executing transforms (default
	// GOMAXPROCS).
	Workers int
	// MaxBatch caps how many same-plan requests coalesce into one
	// TransformBatch call (default 8).
	MaxBatch int
	// MaxLinger is how long the first request of a batch waits for
	// company before the batch flushes anyway (default 0: every request
	// flushes immediately, disabling coalescing; soiserve's -linger flag
	// defaults to 2ms).
	MaxLinger time.Duration
	// QueueDepth caps requests admitted but not yet executed; beyond it
	// the server rejects with StatusOverloaded (default 256).
	QueueDepth int
	// MaxN rejects requests longer than this many points (default 2^22).
	MaxN int
	// RetryAfter is the hint attached to backpressure rejections
	// (default 2×MaxLinger, at least 10ms).
	RetryAfter time.Duration
	// IdleTimeout closes a connection when no complete request arrives
	// within it — one absolute deadline covers the idle wait plus the
	// request read, so a slow-loris sender cannot pin a connection
	// goroutine forever (0 = no limit).
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response; a client that stops
	// reading is disconnected rather than wedging the handler
	// (0 = no limit).
	WriteTimeout time.Duration
	// Instrument selects the observability level attached to every plan
	// the server builds or warms (default soifft.InstrumentOff). With it
	// on, the debug endpoint's /metrics page exposes per-plan stage and
	// communication counters in Prometheus text format.
	Instrument soifft.InstrumentLevel
	// Logger receives structured connection- and request-level records
	// (default: discard). Request-scoped records carry a trace_id
	// attribute when tracing is on.
	Logger *slog.Logger
	// Tracer, when set, records a per-request timeline: every request
	// gets a trace ID (the client's via the v2 header, or a fresh one)
	// and request / batch_linger / queue_wait / execute / write_back
	// spans, with the plan's pipeline-stage spans nested under execute.
	Tracer *trace.Tracer
	// FlightDir arms the tracer's flight recorder: typed faults
	// (including backpressure rejections) dump the event ring to a
	// timestamped Perfetto JSON file in this directory.
	FlightDir string
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:7080"
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 32
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 22
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * c.MaxLinger
		if c.RetryAfter < 10*time.Millisecond {
			c.RetryAfter = 10 * time.Millisecond
		}
	}
	if c.Logger == nil {
		// slog.DiscardHandler is 1.24+; build the discard logger by hand.
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// job is one admitted request travelling through a batch.
type job struct {
	src, dst []complex128
	err      error
	done     chan struct{}
	start    time.Time
	id       trace.ID // request trace ID (zero when tracing is off)
	lane     int      // tracer lane the request's spans render on
}

// batchKey groups jobs that can execute under one plan call.
type batchKey struct {
	plan    soifft.PlanKey
	inverse bool
}

// batcher accumulates same-plan jobs until MaxBatch or MaxLinger.
type batcher struct {
	plan  *soifft.Plan
	jobs  []*job
	timer *time.Timer
}

// batch is one unit of worker-pool work.
type batch struct {
	plan    *soifft.Plan
	inverse bool
	jobs    []*job
}

// Server is the FFT service. Create with New, start with ListenAndServe
// (or Listen + Serve), stop with Shutdown.
type Server struct {
	cfg     Config
	cache   *soifft.PlanCache
	metrics *Metrics

	work    chan *batch
	queued  atomic.Int64  // jobs admitted but not yet executed
	laneSeq atomic.Uint64 // rotating tracer lanes so concurrent request spans don't collide

	mu       sync.Mutex
	ln       net.Listener
	draining bool
	batchers map[batchKey]*batcher
	conns    map[net.Conn]struct{}
	execHook func() // test seam: runs at the start of every batch

	inflight sync.WaitGroup // accepted requests, until their response is written
	connWG   sync.WaitGroup
	workerWG sync.WaitGroup
}

// New builds a server; it owns a fresh plan cache (reachable via Cache)
// and starts its worker pool immediately.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    soifft.NewPlanCache(cfg.CacheCapacity),
		metrics:  newMetrics(),
		work:     make(chan *batch, cfg.QueueDepth),
		batchers: make(map[batchKey]*batcher),
		conns:    make(map[net.Conn]struct{}),
	}
	s.metrics.queueDepth = s.queued.Load
	s.metrics.cacheVars = s.cacheVars
	s.metrics.plans = s.cache.Plans
	if cfg.Tracer != nil {
		if cfg.FlightDir != "" {
			cfg.Tracer.SetFlightDir(cfg.FlightDir)
		}
		s.metrics.flight = cfg.Tracer.WritePerfetto
	}
	s.metrics.healthy = func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return !s.draining
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// Cache exposes the server's plan cache, for its statistics or to insert
// a pre-built plan with Add.
func (s *Server) Cache() *soifft.PlanCache { return s.cache }

// Metrics exposes the server's live counters.
func (s *Server) Metrics() *Metrics { return s.metrics }

func (s *Server) cacheVars() map[string]any {
	st := s.cache.Stats()
	perPlan := map[string]any{}
	for _, p := range st.PerPlan {
		perPlan[p.Key.String()] = p.Hits
	}
	return map[string]any{
		"size":      st.Size,
		"capacity":  st.Capacity,
		"hits":      st.Hits,
		"misses":    st.Misses,
		"evictions": st.Evictions,
		"hit_rate":  st.HitRate(),
		"per_plan":  perPlan,
	}
}

// Listen binds the configured address. Call before Serve when the
// ephemeral port must be known (tests, port-0 configs).
func (s *Server) Listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	return nil
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// ListenAndServe binds cfg.Addr and runs the accept loop until Shutdown.
func (s *Server) ListenAndServe() error {
	if err := s.Listen(); err != nil {
		return err
	}
	return s.Serve()
}

// Serve runs the accept loop on the listener bound by Listen. It
// returns nil after Shutdown closes the listener.
func (s *Server) Serve() error {
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln == nil {
		return errors.New("serve: Serve before Listen")
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			_ = conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReader(&countingReader{r: conn, n: &s.metrics.bytesIn})
	cw := &countingWriter{w: conn, n: &s.metrics.bytesOut}
	bw := bufio.NewWriter(cw)
	writeResp := func(resp *Response) error {
		if s.cfg.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		}
		if err := WriteResponse(bw, resp); err != nil {
			return err
		}
		return bw.Flush()
	}
	log := s.cfg.Logger.With("remote", conn.RemoteAddr().String())
	tr := s.cfg.Tracer
	for {
		if s.cfg.IdleTimeout > 0 {
			_ = conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		}
		req, err := ReadRequest(br, s.cfg.MaxN)
		if err != nil {
			// EOF between frames is a client hanging up and an expired
			// idle deadline is a quiet disconnect; anything else is a
			// framing error worth one reply attempt.
			if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
				log.Warn("request read failed", "err", err)
				_ = writeResp(&Response{Status: StatusBadRequest, Msg: err.Error()})
			}
			return
		}
		// Admission: the draining check and the in-flight registration
		// are atomic with respect to Shutdown, so every accepted
		// request gets its response written before drain completes.
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.metrics.drained.Add(1)
			_ = writeResp(&Response{
				Status: StatusDraining, RetryAfter: s.cfg.RetryAfter,
				Msg: "server is draining", Proto: req.Proto,
			})
			Release(req.Data)
			return
		}
		s.inflight.Add(1)
		s.mu.Unlock()

		resp, id, lane := s.process(req, log)
		resp.Proto = req.Proto // echo the requester's version; v1 clients reject anything else
		tr.Begin(id, lane, "write_back")
		err = writeResp(resp)
		tr.End(id, lane, "write_back")
		// The response frame is written, so nothing references either
		// payload any more (resp.Data is the job's dst).
		Release(req.Data)
		Release(resp.Data)
		s.inflight.Done()
		if err != nil {
			log.Warn("response write failed", "err", err, "trace_id", id.String())
			return
		}
	}
}

// process executes one admitted request and builds its response. It
// returns the request's trace ID and tracer lane so the caller can
// bracket the response write.
func (s *Server) process(req *Request, log *slog.Logger) (*Response, trace.ID, int) {
	start := time.Now()
	s.metrics.requests.Add(1)

	// Every traced request gets an ID — the client's (v2 header) or a
	// fresh one — and a rotating lane, so concurrent request spans land
	// on distinct tracks.
	tr := s.cfg.Tracer
	id := trace.ID(req.TraceID)
	var lane int
	if tr != nil {
		if id == 0 {
			id = trace.NewID()
		}
		lane = int(s.laneSeq.Add(1) & 0x1fff)
		tr.Begin(id, lane, "request")
	}
	defer func() {
		d := time.Since(start)
		s.metrics.observeLatency(d)
		s.metrics.latTotal.observe(d)
		tr.End(id, lane, "request")
	}()

	switch req.Op {
	case OpPing:
		return &Response{Status: StatusOK}, id, lane
	case OpForward, OpInverse:
	default:
		s.metrics.errors.Add(1)
		return &Response{Status: StatusBadRequest, Msg: fmt.Sprintf("unknown op %d", req.Op)}, id, lane
	}
	if req.N <= 0 || len(req.Data) != req.N {
		s.metrics.errors.Add(1)
		return &Response{Status: StatusBadRequest,
			Msg: fmt.Sprintf("payload has %d points, header says n=%d", len(req.Data), req.N)}, id, lane
	}

	plan, resp := s.resolvePlan(req)
	if resp != nil {
		return resp, id, lane
	}

	// Backpressure: admit-and-check keeps the depth accounting exact
	// under concurrent submissions. A rejection is a typed fault: it
	// marks the timeline and (when armed) dumps the flight recorder.
	if q := s.queued.Add(1); q > int64(s.cfg.QueueDepth) {
		s.queued.Add(-1)
		s.metrics.rejected.Add(1)
		if tr != nil {
			if path, _ := tr.Fault(id, lane, "backpressure"); path != "" {
				log.Warn("flight recorder dumped", "reason", "backpressure", "path", path, "trace_id", id.String())
			}
		}
		return &Response{
			Status: StatusOverloaded, RetryAfter: s.cfg.RetryAfter,
			Msg: fmt.Sprintf("queue full (%d jobs)", s.cfg.QueueDepth),
		}, id, lane
	}

	j := &job{
		src:   req.Data,
		dst:   payloads.Get(req.N),
		done:  make(chan struct{}),
		start: start,
		id:    id,
		lane:  lane,
	}
	s.enqueue(plan, batchKey{plan: plan.Key(), inverse: req.Op == OpInverse}, j)
	<-j.done
	if j.err != nil {
		Release(j.dst)
		s.metrics.errors.Add(1)
		log.Error("transform failed", "err", j.err, "n", req.N, "trace_id", id.String())
		return &Response{Status: StatusInternal, Msg: j.err.Error()}, id, lane
	}
	return &Response{Status: StatusOK, Data: j.dst}, id, lane
}

// resolvePlan maps request parameters to a cached plan, building through
// the cache on a miss. A nil plan comes with a ready error response.
func (s *Server) resolvePlan(req *Request) (*soifft.Plan, *Response) {
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
	if s.cfg.Instrument > soifft.InstrumentOff {
		// Excluded from the cache key (it does not change the transform),
		// so instrumented and plain requests share one plan.
		opts = append(opts, soifft.WithInstrumentation(s.cfg.Instrument))
	}
	plan, _, err := s.cache.Get(req.N, opts...)
	if err != nil {
		s.metrics.errors.Add(1)
		return nil, &Response{Status: StatusBadRequest, Msg: err.Error()}
	}
	return plan, nil
}

// enqueue adds a job to the key's batcher, flushing when the batch is
// full (or immediately while draining or when coalescing is off).
func (s *Server) enqueue(plan *soifft.Plan, key batchKey, j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.batchers[key]
	if b == nil {
		b = &batcher{plan: plan}
		s.batchers[key] = b
	}
	b.jobs = append(b.jobs, j)
	s.cfg.Tracer.Begin(j.id, j.lane, "batch_linger")
	if len(b.jobs) >= s.cfg.MaxBatch || s.cfg.MaxLinger <= 0 || s.draining {
		s.flushLocked(key, b)
		return
	}
	if len(b.jobs) == 1 {
		b.timer = time.AfterFunc(s.cfg.MaxLinger, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			if cur := s.batchers[key]; cur == b && len(b.jobs) > 0 {
				s.flushLocked(key, b)
			}
		})
	}
}

// flushLocked hands the batcher's jobs to the worker pool. Callers hold
// s.mu. The work channel's capacity equals QueueDepth, which bounds
// total queued jobs (and hence batches), so the send cannot block.
func (s *Server) flushLocked(key batchKey, b *batcher) {
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	jobs := b.jobs
	b.jobs = nil
	delete(s.batchers, key)
	for _, j := range jobs {
		s.cfg.Tracer.End(j.id, j.lane, "batch_linger")
		s.cfg.Tracer.Begin(j.id, j.lane, "queue_wait")
	}
	s.work <- &batch{plan: b.plan, inverse: key.inverse, jobs: jobs}
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for b := range s.work {
		s.runBatch(b)
	}
}

// runBatch executes one batch: forward batches through one contiguous
// TransformBatch call, inverse batches as a loop under one work unit.
func (s *Server) runBatch(b *batch) {
	s.mu.Lock()
	hook := s.execHook
	s.mu.Unlock()
	if hook != nil {
		hook()
	}
	m := len(b.jobs)
	s.metrics.observeBatch(m)
	n := b.plan.N()

	// Close out the queue-wait spans, open execute, and build the batch
	// context: the tracer and the first job's trace ID ride it so the
	// plan's pipeline-stage spans nest under this batch without mutating
	// the shared cached plan.
	tr := s.cfg.Tracer
	execStart := time.Now()
	ctx := context.Background()
	if tr != nil {
		for _, j := range b.jobs {
			tr.End(j.id, j.lane, "queue_wait")
			tr.Begin(j.id, j.lane, "execute")
			s.metrics.latQueue.observe(execStart.Sub(j.start))
		}
		ctx = trace.WithTracer(trace.WithID(ctx, b.jobs[0].id), tr)
	} else {
		for _, j := range b.jobs {
			s.metrics.latQueue.observe(execStart.Sub(j.start))
		}
	}

	switch {
	case b.inverse:
		for _, j := range b.jobs {
			j.err = b.plan.InverseContext(ctx, j.dst, j.src)
		}
	case m == 1:
		b.jobs[0].err = b.plan.TransformContext(ctx, b.jobs[0].dst, b.jobs[0].src)
	default:
		src, dst := payloads.Get(m*n), payloads.Get(m*n)
		for i, j := range b.jobs {
			copy(src[i*n:(i+1)*n], j.src)
		}
		err := b.plan.TransformBatchContext(ctx, dst, src, m)
		for i, j := range b.jobs {
			if err != nil {
				j.err = err
			} else {
				copy(j.dst, dst[i*n:(i+1)*n])
			}
		}
		Release(src)
		Release(dst)
	}

	execDur := time.Since(execStart)
	for _, j := range b.jobs {
		s.metrics.latExec.observe(execDur)
		tr.End(j.id, j.lane, "execute")
	}
	s.queued.Add(int64(-m))
	for _, j := range b.jobs {
		close(j.done)
	}
}

// Shutdown drains the server: it stops accepting connections, lets every
// accepted request finish and receive its response, flushes lingering
// batches immediately, stops the workers and closes idle connections.
// Requests arriving on open connections after drain begins receive
// StatusDraining. If ctx expires first, remaining connections are closed
// and ctx's error returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	for key, b := range s.batchers {
		if len(b.jobs) > 0 {
			s.flushLocked(key, b)
		}
	}
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		_ = ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		// Force path: sever the connections but leave the worker pool
		// running — handlers may still be enqueueing, and closing the
		// work channel under them would panic. Workers idle harmlessly
		// until process exit.
		s.closeConns()
		return ctx.Err()
	}
	close(s.work)
	s.workerWG.Wait()
	s.closeConns()
	s.connWG.Wait()
	return nil
}

func (s *Server) closeConns() {
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
}
