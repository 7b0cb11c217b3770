package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"soifft"
	"soifft/client"
	"soifft/internal/fft"
	"soifft/internal/gate"
	"soifft/internal/serve"
	"soifft/internal/signal"
)

// The service workload's traffic: a Poisson schedule at a fixed rate over
// exactly two connections, three small requests to one larger.
const (
	svcRate     = 100.0 // requests per second, open loop
	svcConns    = 2     // client connections, never more (two cores)
	svcReplicas = 2
	// svcOpenShare of the timed window is the open loop; the rest is the
	// closed loop that measures capacity.
	svcOpenShare   = 2.0 / 3
	svcWarmups     = 5 // requests per size before timing
	requestTimeout = 20 * time.Second
	// svcLinger is how long a replica holds the first request of a batch
	// for company: the serving binary's default (the library's is none).
	svcLinger = 2 * time.Millisecond
)

// sizeClass is one request size of the mix with its weight.
type sizeClass struct {
	n, weight int
}

var svcMix = []sizeClass{{n: 4096, weight: 3}, {n: 16384, weight: 1}}

// request is one pooled input with the exact response the service must
// give and that response's SNR against the float64 FFT.
type request struct {
	x, want []complex128
	snr     float64
}

// makeRequests builds inputs requests per size class: signal.Random
// inputs, soifft.Plan.Transform as the expected bits.
func makeRequests(mix []sizeClass, inputs int, seed int64) ([][]request, error) {
	pool := make([][]request, len(mix))
	for c, sc := range mix {
		pl, err := soifft.NewPlan(sc.n)
		if err != nil {
			return nil, err
		}
		for k := 0; k < inputs; k++ {
			x := signal.Random(sc.n, seed+int64(c*inputs+k))
			want := make([]complex128, sc.n)
			if err := pl.Transform(want, x); err != nil {
				return nil, err
			}
			ref, err := fft.Forward(x)
			if err != nil {
				return nil, err
			}
			rel := signal.RelErrL2(want, ref)
			if !(rel <= maxRelErr) {
				return nil, fmt.Errorf("expected response n=%d: rel-L2 error %.3e exceeds %.0e", sc.n, rel, maxRelErr)
			}
			pool[c] = append(pool[c], request{x: x, want: want, snr: -20 * math.Log10(rel)})
		}
	}
	return pool, nil
}

// arrival is one scheduled request: when it is due, and which pooled
// request it sends.
type arrival struct {
	due          time.Duration
	class, input int
}

// mixer draws size classes in seeded shuffles of one full round of the
// weights (3:1 is some order of three small and one large), so every
// seed sends the mix's exact proportions and only their order differs:
// with independent draws the share of large requests, and with it the
// bytes allocated per request, moved ±2 % from seed to seed.
type mixer struct {
	rng    *rand.Rand
	round  []int // one class index per unit of weight
	next   int
	inputs int
}

func newMixer(rng *rand.Rand, mix []sizeClass, inputs int) *mixer {
	m := &mixer{rng: rng, inputs: inputs}
	for c, sc := range mix {
		for i := 0; i < sc.weight; i++ {
			m.round = append(m.round, c)
		}
	}
	return m
}

// pick returns the next request's size class and one of its inputs.
func (m *mixer) pick() (class, input int) {
	if m.next == 0 {
		m.rng.Shuffle(len(m.round), func(i, j int) { m.round[i], m.round[j] = m.round[j], m.round[i] })
	}
	class = m.round[m.next]
	m.next = (m.next + 1) % len(m.round)
	return class, m.rng.Intn(m.inputs)
}

// poissonSchedule is a seeded open-loop schedule: exponential gaps at
// rate per second until duration.
func poissonSchedule(seed int64, rate float64, duration time.Duration, mix []sizeClass, inputs int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	classes := newMixer(rng, mix, inputs)
	var out []arrival
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= duration {
			return out
		}
		c, k := classes.pick()
		out = append(out, arrival{due: t, class: c, input: k})
	}
}

// tier is two serve.Server replicas behind one gate.Gateway, all on
// loopback in this process.
type tier struct {
	replicas []*serve.Server
	gw       *gate.Gateway
	served   sync.WaitGroup // the Serve loops
}

func startTier() (*tier, error) {
	t := &tier{}
	var specs []gate.ReplicaSpec
	for i := 0; i < svcReplicas; i++ {
		s := serve.New(serve.Config{Addr: "127.0.0.1:0", MaxLinger: svcLinger})
		if err := s.Listen(); err != nil {
			t.stop()
			return nil, err
		}
		t.replicas = append(t.replicas, s)
		t.served.Add(1)
		go func() { defer t.served.Done(); _ = s.Serve() }() // Serve returns nil after Shutdown
		specs = append(specs, gate.ReplicaSpec{Addr: s.Addr().String()})
	}
	t.gw = gate.New(gate.Config{Addr: "127.0.0.1:0", Replicas: specs})
	if err := t.gw.Listen(); err != nil {
		t.stop()
		return nil, err
	}
	t.served.Add(1)
	go func() { defer t.served.Done(); _ = t.gw.Serve() }()
	return t, nil
}

// stop shuts the gateway and the replicas down and waits for their
// accept loops to return.
func (t *tier) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.gw != nil {
		_ = t.gw.Shutdown(ctx) // a timeout only means connections were severed
	}
	for _, s := range t.replicas {
		_ = s.Shutdown(ctx)
	}
	t.served.Wait()
}

// placement reports which replica the ring sends each size to.
func (t *tier) placement() string {
	s := "ring:"
	for _, sc := range svcMix {
		primary := t.gw.PrimaryFor(soifft.KeyOf(sc.n))
		for i, r := range t.replicas {
			if r.Addr().String() == primary {
				s += fmt.Sprintf(" n=%d -> replica %d;", sc.n, i)
			}
		}
	}
	return s
}

func (t *tier) gateAddr() string    { return t.gw.Addr().String() }
func (t *tier) replicaAddr() string { return t.replicas[0].Addr().String() }

// dial opens the workload's client connections to addr.
func dial(addr string) ([]*client.Client, error) {
	var cls []*client.Client
	for i := 0; i < svcConns; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			closeAll(cls)
			return nil, err
		}
		c.SetRequestTimeout(requestTimeout)
		cls = append(cls, c)
	}
	return cls, nil
}

func closeAll(cls []*client.Client) {
	for _, c := range cls {
		c.Close()
	}
}

// loadResult is what one load segment measured.
type loadResult struct {
	latency   []float64 // ms, sorted; open loop: from the instant the request was due
	late      []float64 // ms, sorted; how late the generator sent each request
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
}

func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// send issues one pooled request and checks the response bit for bit.
func send(cl *client.Client, tr *tracer, op int, req request) error {
	sp := tr.begin("client.Client.Transform", op, -1, 0)
	out, err := cl.Transform(req.x, nil)
	tr.end(sp)
	if err != nil {
		return err
	}
	if !sameBits(out, req.want) {
		return fmt.Errorf("response n=%d differs in bits from soifft.Plan.Transform", len(req.x))
	}
	return nil
}

// openLoop plays the schedule over the connections: each connection
// takes the next arrival, waits until it is due, sends it, and times it
// from the due instant, so a stall charges every request queued behind
// it.
func openLoop(cls []*client.Client, sched []arrival, pool [][]request, tr *tracer) loadResult {
	var (
		res  loadResult
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for _, cl := range cls {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(sched) {
					return
				}
				a := sched[i]
				due := start.Add(a.due)
				waitUntil(due)
				sent := time.Now()
				err := send(cl, tr, i, pool[a.class][a.input])
				done := time.Now()
				mu.Lock()
				res.attempted++
				if err != nil {
					res.fail(err)
				} else {
					res.latency = append(res.latency, ms(done.Sub(due)))
					res.late = append(res.late, ms(sent.Sub(due)))
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Float64s(res.latency)
	sort.Float64s(res.late)
	return res
}

// waitUntil sleeps to within a millisecond of t and yields the rest of
// the way: a bare Sleep overshoots by about half a millisecond here,
// which an open loop would book as latency of the service.
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// closedLoop has every connection send back to back for duration: the
// completed requests per second are the tier's capacity at this client
// count.
func closedLoop(cls []*client.Client, duration time.Duration, pool [][]request, mix []sizeClass, seed int64) loadResult {
	var (
		res loadResult
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	start := time.Now()
	for i, cl := range cls {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			classes := newMixer(rand.New(rand.NewSource(seed+int64(i))), mix, len(pool[0]))
			for time.Since(start) < duration {
				c, k := classes.pick()
				t0 := time.Now()
				err := send(cl, nil, -1, pool[c][k])
				d := time.Since(t0)
				mu.Lock()
				res.attempted++
				if err != nil {
					res.fail(err)
				} else {
					res.latency = append(res.latency, ms(d))
				}
				mu.Unlock()
			}
		}(i, cl)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	sort.Float64s(res.latency)
	return res
}

// serviceSetUp brings the tier up, connects, and warms every size; the
// elapsed time is one setup_s sample.
func serviceSetUp(pool [][]request, warmups int) (*tier, []*client.Client, time.Duration, error) {
	t0 := time.Now()
	t, err := startTier()
	if err != nil {
		return nil, nil, 0, err
	}
	cls, err := dial(t.gateAddr())
	if err != nil {
		t.stop()
		return nil, nil, 0, err
	}
	for i := 0; i < warmups; i++ {
		for c := range pool {
			if err := send(cls[i%len(cls)], nil, -1, pool[c][i%len(pool[c])]); err != nil {
				closeAll(cls)
				t.stop()
				return nil, nil, 0, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return t, cls, time.Since(t0), nil
}

// minSNR is the worst accuracy among the pooled responses.
func minSNR(pool [][]request) float64 {
	snr := math.Inf(1)
	for _, class := range pool {
		for _, r := range class {
			snr = math.Min(snr, r.snr)
		}
	}
	return snr
}

// svcWindow splits the timed window into the open and the closed loop.
func svcWindow(seconds float64) (open, closed time.Duration) {
	total := time.Duration(seconds * float64(time.Second))
	open = time.Duration(float64(total) * svcOpenShare)
	return open, total - open
}

// untracedService is the end-to-end pass of service_mix.
func untracedService(rc runConfig) (passResult, error) {
	pr := passResult{vals: values{}}
	pool, err := makeRequests(svcMix, rc.sc.svcInputs, rc.seed)
	if err != nil {
		return pr, err
	}
	warmups := min(svcWarmups, rc.sc.warmups)

	// The tier is cheap to bring up, so setup_s gets more samples than
	// the transform workloads give it.
	var (
		setups []float64
		t      *tier
		cls    []*client.Client
	)
	for i := 0; i < 2*rc.sc.setups-1; i++ {
		if t != nil {
			closeAll(cls)
			t.stop()
		}
		var d time.Duration
		if t, cls, d, err = serviceSetUp(pool, warmups); err != nil {
			return pr, err
		}
		setups = append(setups, d.Seconds())
	}
	defer t.stop()
	defer closeAll(cls)

	openFor, closedFor := svcWindow(rc.seconds)
	sched := poissonSchedule(rc.seed, svcRate, openFor, svcMix, rc.sc.svcInputs)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	open := openLoop(cls, sched, pool, nil)
	closed := closedLoop(cls, closedFor, pool, svcMix, rc.seed)
	runtime.ReadMemStats(&m1)

	pr.attempted = open.attempted + closed.attempted
	pr.failed = open.failed + closed.failed
	for _, r := range []loadResult{open, closed} {
		if r.firstErr != nil {
			pr.notes = append(pr.notes, fmt.Sprintf("FAILED %d requests, first: %v", r.failed, r.firstErr))
		}
	}
	if len(open.latency) == 0 || len(closed.latency) == 0 {
		return pr, fmt.Errorf("%s: no request succeeded", wServiceMix)
	}

	pr.vals.set("setup_s", median(setups), len(setups))
	pr.vals.set("latency_ms_p50", median(open.latency), len(open.latency))
	if p90, ok := percentile(open.latency, 0.9); ok {
		pr.vals.set("latency_ms_p90", p90, len(open.latency))
	}
	pr.vals.set("capacity_rps", float64(len(closed.latency))/closed.elapsed.Seconds(), len(closed.latency))
	pr.vals.set("failed_share", float64(pr.failed)/float64(pr.attempted), pr.attempted)
	// The transform metrics, extended to the service: the wall of one
	// request in the closed loop, the whole process's allocation per
	// request over both loops, the accuracy of the responses, and an
	// exchange that does not exist.
	pr.vals.set("wall_ms_p50", median(closed.latency), len(closed.latency))
	pr.vals.set("alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(pr.attempted)/1e6, pr.attempted)
	pr.vals.set("snr_db", minSNR(pool), len(pool)*rc.sc.svcInputs)
	pr.vals.set("exchange_bytes_over_model", bytesOverModel(0, 0), 1)
	pr.notes = append(pr.notes, t.placement())
	pr.notes = append(pr.notes, fmt.Sprintf("open loop: %.0f req/s offered for %v over %d connections, %d sent; generator late p50 %.3f ms, max %.3f ms",
		svcRate, openFor, svcConns, open.attempted, median(open.late), open.late[len(open.late)-1]))
	return pr, nil
}

// tracedService is the per-layer pass of service_mix: the schedule via
// the gateway with and without spans, the same schedule straight to one
// replica, and the plan cache by direct calls.
func tracedService(rc runConfig) (passResult, error) {
	pr := passResult{vals: values{}}
	v := pr.vals
	pool, err := makeRequests(svcMix, rc.sc.svcInputs, rc.seed)
	if err != nil {
		return pr, err
	}
	t, cls, _, err := serviceSetUp(pool, min(svcWarmups, rc.sc.warmups))
	if err != nil {
		return pr, err
	}
	defer t.stop()
	defer closeAll(cls)

	total := time.Duration(rc.seconds * float64(time.Second))
	tr := newTracer()
	viaGate := poissonSchedule(rc.seed, svcRate, total*2/5, svcMix, rc.sc.svcInputs)
	plain := openLoop(cls, viaGate, pool, nil)
	traced := openLoop(cls, viaGate, pool, tr)

	direct, err := dial(t.replicaAddr())
	if err != nil {
		return pr, err
	}
	defer closeAll(direct)
	for c := range pool { // the replica may not have built both plans yet
		if err := send(direct[0], nil, -1, pool[c][0]); err != nil {
			return pr, err
		}
	}
	straight := openLoop(direct, poissonSchedule(rc.seed, svcRate, total/5, svcMix, rc.sc.svcInputs), pool, tr)

	for _, r := range []loadResult{plain, traced, straight} {
		pr.attempted += r.attempted
		pr.failed += r.failed
		if r.firstErr != nil {
			pr.notes = append(pr.notes, fmt.Sprintf("FAILED %d requests, first: %v", r.failed, r.firstErr))
		}
	}
	if len(plain.latency) == 0 || len(traced.latency) == 0 || len(straight.latency) == 0 {
		return pr, fmt.Errorf("%s: no traced request succeeded", wServiceMix)
	}

	gateP50 := median(plain.latency)
	directP50 := median(straight.latency)
	v.set("bench.trace_overhead_pct", 100*(median(traced.latency)/gateP50-1), len(traced.latency))
	v.set("serve.direct_p50_ms", directP50, len(straight.latency))
	v.set("gate.hop_ms", gateP50-directP50, len(plain.latency))

	both := append(append([]float64(nil), plain.latency...), traced.latency...)
	late := append(append([]float64(nil), plain.late...), traced.late...)
	sort.Float64s(both)
	sort.Float64s(late)
	v.set("service.latency_ms_p50", median(both), len(both))
	for _, tail := range []struct {
		name string
		p    float64
	}{{"service.latency_ms_p90", 0.9}, {"service.latency_ms_p99", 0.99}} {
		if pv, ok := percentile(both, tail.p); ok {
			v.set(tail.name, pv, len(both))
		}
	}
	if p99, ok := percentile(late, 0.99); ok {
		v.set("service.gen_late_ms_p99", p99, len(late))
	}
	v.set("service.gen_late_ms_max", late[len(late)-1], len(late))

	var requests, batches, rejected, batchMax int64
	var hits, misses uint64
	for _, s := range t.replicas {
		m := s.Metrics()
		requests += m.Requests()
		batches += m.Batches()
		rejected += m.Rejected()
		batchMax = max(batchMax, m.MaxBatch())
		cs := s.Cache().Stats()
		hits += cs.Hits
		misses += cs.Misses
	}
	v.set("serve.batch_mean", float64(requests)/float64(max(batches, 1)), int(batches))
	v.set("serve.batch_max", float64(batchMax), int(batches))
	v.set("serve.rejected", float64(rejected), int(requests))
	v.set("plancache.hit_rate", float64(hits)/float64(max(hits+misses, 1)), int(hits+misses))
	gm := t.gw.Metrics()
	v.set("gate.failovers", float64(gm.Failovers()), int(gm.Requests()))
	v.set("gate.spills", float64(gm.Spills()), int(gm.Requests()))
	v.set("gate.affinity", gm.Affinity(), int(gm.Requests()))

	if err := planCacheProbes(&layerCtx{rc: rc, tr: tr, vals: v, notes: &pr.notes}); err != nil {
		return pr, err
	}
	pr.notes = append(pr.notes, fmt.Sprintf("hop: via gateway p50 %.3f ms - straight to one replica p50 %.3f ms = gate.hop_ms %.3f", gateP50, directP50, gateP50-directP50))
	pr.notes = append(pr.notes, tr.selfByName())
	return pr, writeTrace(tr, rc.outDir, wServiceMix)
}

// planCacheProbes times PlanCache.Get by direct calls: a miss builds the
// plan, a hit is a map lookup under the cache's lock.
func planCacheProbes(lc *layerCtx) error {
	var miss, hit []float64
	for rep := 0; rep < lc.rc.sc.probeReps; rep++ {
		cache := soifft.NewPlanCache(8)
		for _, sc := range svcMix {
			var err error
			var wasHit bool
			miss = append(miss, lc.call("soifft.PlanCache.Get[miss]", func() { _, wasHit, err = cache.Get(sc.n) }))
			if err != nil {
				return err
			}
			if wasHit {
				return fmt.Errorf("plan cache: first Get(%d) reported a hit", sc.n)
			}
			const lookups = 256
			d := lc.call("soifft.PlanCache.Get[hit x256]", func() {
				for i := 0; i < lookups; i++ {
					_, wasHit, err = cache.Get(sc.n)
				}
			})
			if err != nil || !wasHit {
				return fmt.Errorf("plan cache: repeated Get(%d) missed (err %v)", sc.n, err)
			}
			hit = append(hit, 1e3*d/lookups)
		}
	}
	lc.vals.set("plancache.miss_build_ms", median(miss), len(miss))
	lc.vals.set("plancache.hit_us", median(hit), len(hit))
	return nil
}
