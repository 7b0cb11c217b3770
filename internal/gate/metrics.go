package gate

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// latHistBuckets is the bucket count of the log2 latency histograms:
// upper bounds 1µs·2^i, ~1µs to ~1s, plus the implicit +Inf bucket —
// the same shape internal/serve exports, so gateway and replica
// histograms line up in one dashboard.
const latHistBuckets = 21

// latHist is a log2-bucketed latency histogram in the Prometheus
// cumulative style.
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

// writeProm emits the histogram as a Prometheus histogram series with
// optional extra labels.
func (h *latHist) writeProm(w io.Writer, name, labels string) {
	var cum int64
	for i := 0; i <= latHistBuckets; i++ {
		cum += h.buckets[i].Load()
		le := "+Inf"
		if i < latHistBuckets {
			le = fmt.Sprintf("%g", float64(int64(1)<<i)/1e6)
		}
		if labels != "" {
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, labels, le, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
	}
	sep := ""
	if labels != "" {
		sep = "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sep, float64(h.sumUS.Load())/1e6)
	fmt.Fprintf(w, "%s_count%s %d\n", name, sep, h.count.Load())
}

// Metrics is the gateway's live instrumentation: routing counters on
// the proxy hot path plus per-replica latency histograms, exported in
// Prometheus text form on /metrics and as JSON on /debug/ring.
type Metrics struct {
	start time.Time

	requests       atomic.Int64 // transform requests accepted from clients
	routedFirst    atomic.Int64 // requests that reached a first routing attempt
	proxied        atomic.Int64 // request attempts forwarded to replicas
	primaryRoutes  atomic.Int64 // requests whose first attempt hit the ring primary
	spills         atomic.Int64 // first attempts diverted by the bounded-load rule
	unhealthySkips atomic.Int64 // first attempts diverted because the primary was unhealthy
	failovers      atomic.Int64 // extra attempts after transport error / draining
	backoffs       atomic.Int64 // RetryAfter-aware sleeps taken before a retry pass
	rejectedTenant atomic.Int64 // admission-control rejections (tenant queue full)
	rejectedNoRep  atomic.Int64 // requests with no routable replica
	errors         atomic.Int64 // requests answered non-OK after all attempts
	pings          atomic.Int64 // OpPing answered by the gateway itself
	bytesIn        atomic.Int64
	bytesOut       atomic.Int64

	latTotal latHist // client-observed round trip through the gateway

	gw *Gateway // backref for ring/replica snapshots at scrape time
}

func newMetrics(gw *Gateway) *Metrics {
	return &Metrics{start: time.Now(), gw: gw}
}

// Requests returns accepted transform requests.
func (m *Metrics) Requests() int64 { return m.requests.Load() }

// Failovers returns attempts retried on another replica after a
// transport error or a draining reply.
func (m *Metrics) Failovers() int64 { return m.failovers.Load() }

// Spills returns first attempts diverted off the primary by bounded load.
func (m *Metrics) Spills() int64 { return m.spills.Load() }

// Rejected returns admission-control rejections.
func (m *Metrics) Rejected() int64 { return m.rejectedTenant.Load() }

// Affinity reports the fraction of routed requests whose first attempt
// landed on the ring primary — the batching-affinity number the e2e
// acceptance gate checks (>90% when the primary is healthy and under
// its load bound).
func (m *Metrics) Affinity() float64 {
	total := m.routedFirst.Load()
	if total <= 0 {
		return 1
	}
	return float64(m.primaryRoutes.Load()) / float64(total)
}

// ReplicaStatus is one replica's row in the /debug/ring snapshot.
type ReplicaStatus struct {
	Addr       string    `json:"addr"`
	State      string    `json:"state"`
	Inflight   int64     `json:"inflight"`
	Routed     int64     `json:"routed_total"`
	Failed     int64     `json:"failed_total"`
	QueueDepth int64     `json:"queue_depth"`
	WarmPlans  int       `json:"warm_plans"`
	LastErr    string    `json:"last_err,omitempty"`
	LastProbe  time.Time `json:"last_probe"`
}

// RingStatus is the /debug/ring JSON document.
type RingStatus struct {
	Replicas       []ReplicaStatus `json:"replicas"`
	VNodes         int             `json:"vnodes_per_replica"`
	LoadFactor     float64         `json:"bounded_load_factor"`
	AdmissionQueue int             `json:"admission_queued"`
	Requests       int64           `json:"requests_total"`
	PrimaryRoutes  int64           `json:"primary_routes_total"`
	Spills         int64           `json:"spills_total"`
	Failovers      int64           `json:"failovers_total"`
	Affinity       float64         `json:"affinity"`
}

// RingSnapshot assembles the current routing state (also the backing of
// /debug/ring).
func (m *Metrics) RingSnapshot() RingStatus {
	st := RingStatus{
		VNodes:         m.gw.cfg.VNodes,
		LoadFactor:     m.gw.cfg.BoundedLoadFactor,
		AdmissionQueue: m.gw.adm.queued(),
		Requests:       m.requests.Load(),
		PrimaryRoutes:  m.primaryRoutes.Load(),
		Spills:         m.spills.Load(),
		Failovers:      m.failovers.Load(),
		Affinity:       m.Affinity(),
	}
	for _, r := range m.gw.reg.all() {
		r.mu.Lock()
		row := ReplicaStatus{
			Addr:       r.addr,
			State:      r.state.String(),
			QueueDepth: r.queueDepth,
			WarmPlans:  r.warmPlans,
			LastErr:    r.lastErr,
			LastProbe:  r.lastProbe,
		}
		r.mu.Unlock()
		row.Inflight = r.inflight.Load()
		row.Routed = r.routed.Load()
		row.Failed = r.failed.Load()
		st.Replicas = append(st.Replicas, row)
	}
	return st
}

// Handler returns the gateway's HTTP mux: Prometheus /metrics with
// per-replica latency histograms and routing counters, /debug/ring with
// the live ring snapshot, and /healthz (200 while at least one replica
// is routable, 503 otherwise) carrying the same JSON health shape the
// replicas serve.
func (m *Metrics) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", m.writePrometheus)
	mux.HandleFunc("/debug/ring", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.RingSnapshot())
	})
	mux.HandleFunc("/debug/cluster", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(m.gw.ClusterRollup())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		n, _ := m.gw.reg.healthyCount()
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		status := "ok"
		if n == 0 {
			status = "no-healthy-replicas"
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status": status, "healthy_replicas": n, "queued": m.gw.adm.queued(),
		})
	})
	return mux
}

func (m *Metrics) writePrometheus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	counter := func(name string, v int64) {
		fmt.Fprintf(w, "# TYPE soigate_%s counter\n", name)
		fmt.Fprintf(w, "soigate_%s %d\n", name, v)
	}
	counter("requests_total", m.requests.Load())
	counter("proxied_total", m.proxied.Load())
	counter("primary_routes_total", m.primaryRoutes.Load())
	counter("spills_total", m.spills.Load())
	counter("unhealthy_skips_total", m.unhealthySkips.Load())
	counter("failovers_total", m.failovers.Load())
	counter("backoffs_total", m.backoffs.Load())
	counter("rejected_tenant_total", m.rejectedTenant.Load())
	counter("rejected_no_replica_total", m.rejectedNoRep.Load())
	counter("errors_total", m.errors.Load())
	counter("pings_total", m.pings.Load())
	counter("bytes_in_total", m.bytesIn.Load())
	counter("bytes_out_total", m.bytesOut.Load())
	fmt.Fprintf(w, "# TYPE soigate_uptime_seconds gauge\nsoigate_uptime_seconds %d\n",
		int64(time.Since(m.start).Seconds()))
	fmt.Fprintf(w, "# TYPE soigate_admission_queued gauge\nsoigate_admission_queued %d\n",
		m.gw.adm.queued())

	fmt.Fprintf(w, "# TYPE soigate_request_seconds histogram\n")
	m.latTotal.writeProm(w, "soigate_request_seconds", "")

	fmt.Fprintf(w, "# TYPE soigate_replica_inflight gauge\n")
	fmt.Fprintf(w, "# TYPE soigate_replica_routed_total counter\n")
	fmt.Fprintf(w, "# TYPE soigate_replica_failed_total counter\n")
	fmt.Fprintf(w, "# TYPE soigate_replica_healthy gauge\n")
	replicas := m.gw.reg.all()
	for _, r := range replicas {
		lbl := fmt.Sprintf("replica=%q", r.addr)
		healthy := 0
		if r.getState() == StateHealthy {
			healthy = 1
		}
		fmt.Fprintf(w, "soigate_replica_inflight{%s} %d\n", lbl, r.inflight.Load())
		fmt.Fprintf(w, "soigate_replica_routed_total{%s} %d\n", lbl, r.routed.Load())
		fmt.Fprintf(w, "soigate_replica_failed_total{%s} %d\n", lbl, r.failed.Load())
		fmt.Fprintf(w, "soigate_replica_healthy{%s} %d\n", lbl, healthy)
	}
	fmt.Fprintf(w, "# TYPE soigate_replica_request_seconds histogram\n")
	for _, r := range replicas {
		r.lat.writeProm(w, "soigate_replica_request_seconds", fmt.Sprintf("replica=%q", r.addr))
	}
}
