package serve

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sync/atomic"
	"time"

	"soifft"
	"soifft/internal/telemetry"
)

// Metrics is the server's live instrumentation: monotonic counters
// updated on the hot path plus computed gauges (queue depth, cache
// stats) sampled at scrape time. All methods are safe for concurrent
// use.
type Metrics struct {
	start time.Time

	requests atomic.Int64 // accepted transform/ping requests
	rejected atomic.Int64 // backpressure rejections
	drained  atomic.Int64 // requests refused because the server is draining
	errors   atomic.Int64 // bad-request + internal errors
	bytesIn  atomic.Int64
	bytesOut atomic.Int64

	batches  atomic.Int64 // TransformBatch/inverse batches executed
	batchJob atomic.Int64 // jobs carried by those batches
	maxBatch atomic.Int64 // largest batch observed

	// batchBuckets histograms batch sizes: 1, 2-3, 4-7, 8-15, >=16.
	batchBuckets [5]atomic.Int64
	// latBuckets histograms request latency: <1ms, <10ms, <100ms, <1s, >=1s.
	latBuckets [5]atomic.Int64
	latTotalUS atomic.Int64

	// Per-request latency histograms with log2 buckets (1µs·2^i),
	// split by where the time went.
	latQueue latHist // admission to batch execution start
	latExec  latHist // batch transform duration
	latTotal latHist // request round trip inside the server

	// sampled at scrape time by the owning server.
	queueDepth func() int64
	cacheVars  func() map[string]any
	healthy    func() bool
	plans      func() []soifft.CachedPlan
	// flight, when set, streams the tracer's flight-recorder ring as
	// Perfetto JSON (the /debug/flight endpoint).
	flight func(w io.Writer) error
}

// latHistBuckets is the bucket count of the log2 latency histograms:
// upper bounds 1µs·2^i for i ∈ [0, latHistBuckets), ~1µs to ~1s, plus
// the implicit +Inf bucket.
const latHistBuckets = 21

// latHist is a log2-bucketed latency histogram in the Prometheus
// cumulative style: bucket i counts observations ≤ 1µs·2^i, overflow
// lands in +Inf, and sum/count give the mean.
type latHist struct {
	buckets [latHistBuckets + 1]atomic.Int64
	sumUS   atomic.Int64
	count   atomic.Int64
}

func (h *latHist) observe(d time.Duration) {
	us := d.Microseconds()
	h.sumUS.Add(us)
	h.count.Add(1)
	i := 0
	for i < latHistBuckets && us > int64(1)<<i {
		i++
	}
	h.buckets[i].Add(1)
}

// snapshot renders the histogram as upper-bound → count pairs
// (cumulative) plus sum and count.
func (h *latHist) snapshot() map[string]any {
	counts := map[string]int64{}
	var cum int64
	for i := 0; i <= latHistBuckets; i++ {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < latHistBuckets {
			le = fmt.Sprintf("%dus", int64(1)<<i)
		}
		if cum > 0 {
			counts[le] = cum
		}
	}
	return map[string]any{
		"buckets": counts,
		"sum_us":  h.sumUS.Load(),
		"count":   h.count.Load(),
	}
}

// writeProm emits the histogram as a Prometheus histogram series
// (cumulative _bucket with le labels in seconds, _sum, _count).
func (h *latHist) writeProm(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i := 0; i <= latHistBuckets; i++ {
		cum += h.buckets[i].Load()
		if i < latHistBuckets {
			fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(int64(1)<<i)/1e6, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		}
	}
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumUS.Load())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, h.count.Load())
}

var batchBucketNames = [5]string{"1", "2-3", "4-7", "8-15", "16+"}
var latBucketNames = [5]string{"lt_1ms", "lt_10ms", "lt_100ms", "lt_1s", "ge_1s"}

func newMetrics() *Metrics {
	return &Metrics{start: time.Now()}
}

func (m *Metrics) observeBatch(size int) {
	m.batches.Add(1)
	m.batchJob.Add(int64(size))
	for {
		cur := m.maxBatch.Load()
		if int64(size) <= cur || m.maxBatch.CompareAndSwap(cur, int64(size)) {
			break
		}
	}
	switch {
	case size <= 1:
		m.batchBuckets[0].Add(1)
	case size <= 3:
		m.batchBuckets[1].Add(1)
	case size <= 7:
		m.batchBuckets[2].Add(1)
	case size <= 15:
		m.batchBuckets[3].Add(1)
	default:
		m.batchBuckets[4].Add(1)
	}
}

func (m *Metrics) observeLatency(d time.Duration) {
	m.latTotalUS.Add(d.Microseconds())
	switch {
	case d < time.Millisecond:
		m.latBuckets[0].Add(1)
	case d < 10*time.Millisecond:
		m.latBuckets[1].Add(1)
	case d < 100*time.Millisecond:
		m.latBuckets[2].Add(1)
	case d < time.Second:
		m.latBuckets[3].Add(1)
	default:
		m.latBuckets[4].Add(1)
	}
}

// Counter accessors for tests and operators.

// Requests returns the count of accepted requests.
func (m *Metrics) Requests() int64 { return m.requests.Load() }

// Rejected returns the count of backpressure rejections.
func (m *Metrics) Rejected() int64 { return m.rejected.Load() }

// Batches returns the count of executed batches.
func (m *Metrics) Batches() int64 { return m.batches.Load() }

// MaxBatch returns the largest batch size observed.
func (m *Metrics) MaxBatch() int64 { return m.maxBatch.Load() }

// Snapshot renders every metric as a JSON-encodable tree, the value
// served under the "soiserve" key of /debug/vars.
func (m *Metrics) Snapshot() map[string]any {
	batchHist := map[string]int64{}
	for i, name := range batchBucketNames {
		batchHist[name] = m.batchBuckets[i].Load()
	}
	latHist := map[string]int64{}
	for i, name := range latBucketNames {
		latHist[name] = m.latBuckets[i].Load()
	}
	snap := map[string]any{
		"uptime_seconds":   int64(time.Since(m.start).Seconds()),
		"requests_total":   m.requests.Load(),
		"rejected_total":   m.rejected.Load(),
		"drained_total":    m.drained.Load(),
		"errors_total":     m.errors.Load(),
		"bytes_in":         m.bytesIn.Load(),
		"bytes_out":        m.bytesOut.Load(),
		"batches_total":    m.batches.Load(),
		"batched_jobs":     m.batchJob.Load(),
		"batch_size_max":   m.maxBatch.Load(),
		"batch_size_hist":  batchHist,
		"latency_hist":     latHist,
		"latency_total_us": m.latTotalUS.Load(),
		"latency_log2": map[string]any{
			"queue_wait": m.latQueue.snapshot(),
			"execute":    m.latExec.snapshot(),
			"total":      m.latTotal.snapshot(),
		},
	}
	if m.queueDepth != nil {
		snap["queue_depth"] = m.queueDepth()
	}
	if m.cacheVars != nil {
		snap["plan_cache"] = m.cacheVars()
	}
	return snap
}

// Health is the JSON body /healthz serves alongside its status code:
// enough detail for a gateway to weight replicas (queue depth, warm
// plan count) and to distinguish draining from dead. The status-code
// contract is unchanged — 200 while serving, 503 once draining — so
// existing bare probes keep working.
type Health struct {
	Status     string `json:"status"` // "ok" or "draining"
	Draining   bool   `json:"draining"`
	QueueDepth int64  `json:"queue_depth"`
	WarmPlans  int    `json:"warm_plans"` // resident plans in the cache
}

// Health assembles the current /healthz body.
func (m *Metrics) Health() Health {
	h := Health{Status: "ok"}
	if m.healthy != nil && !m.healthy() {
		h.Status, h.Draining = "draining", true
	}
	if m.queueDepth != nil {
		h.QueueDepth = m.queueDepth()
	}
	if m.plans != nil {
		h.WarmPlans = len(m.plans())
	}
	return h
}

// Handler returns the metrics HTTP mux: /debug/vars in expvar format
// (process-wide expvar variables plus this server's "soiserve" tree)
// and /healthz reporting 200 while serving, 503 once draining, with a
// JSON Health body either way.
func (m *Metrics) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		first := true
		expvar.Do(func(kv expvar.KeyValue) {
			if !first {
				fmt.Fprintf(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
		})
		own, err := json.Marshal(m.Snapshot())
		if err != nil {
			own = []byte(`"unserializable"`)
		}
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		fmt.Fprintf(w, "%q: %s", "soiserve", own)
		fmt.Fprintf(w, "\n}\n")
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		h := m.Health()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if h.Draining {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(h)
	})
	mux.HandleFunc("/metrics", m.writePrometheus)
	mux.Handle("/debug/cluster", telemetry.Handler(m.ClusterSnapshot))
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		if m.flight == nil {
			http.Error(w, "tracing is not enabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := m.flight(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// writePrometheus serves /metrics: the server's own counters as
// soiserve_* series, then — when the owning server instruments its plans
// — every resident plan's pipeline counters as soifft_* series labelled
// with the plan's canonical key.
func (m *Metrics) writePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counter := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE soiserve_%s counter\n", name)
		fmt.Fprintf(w, "soiserve_%s %d\n", name, v)
	}
	gauge := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE soiserve_%s gauge\n", name)
		fmt.Fprintf(w, "soiserve_%s %d\n", name, v)
	}
	counter("requests_total", m.requests.Load())
	counter("rejected_total", m.rejected.Load())
	counter("drained_total", m.drained.Load())
	counter("errors_total", m.errors.Load())
	counter("bytes_in_total", m.bytesIn.Load())
	counter("bytes_out_total", m.bytesOut.Load())
	counter("batches_total", m.batches.Load())
	counter("batched_jobs_total", m.batchJob.Load())
	gauge("batch_size_max", m.maxBatch.Load())
	gauge("uptime_seconds", int64(time.Since(m.start).Seconds()))
	if m.queueDepth != nil {
		gauge("queue_depth", m.queueDepth())
	}
	m.latQueue.writeProm(w, "soiserve_queue_wait_seconds")
	m.latExec.writeProm(w, "soiserve_execute_seconds")
	m.latTotal.writeProm(w, "soiserve_request_seconds")
	if m.plans != nil {
		for _, cp := range m.plans() {
			_ = cp.Plan.WriteMetrics(w, map[string]string{"plan": cp.Key.String()})
		}
	}
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
