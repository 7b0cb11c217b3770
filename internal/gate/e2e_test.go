package gate_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"soifft"
	"soifft/client"
	"soifft/internal/faultnet"
	"soifft/internal/gate"
	"soifft/internal/loadgen"
	"soifft/internal/serve"
	"soifft/internal/signal"
	"soifft/internal/telemetry"
)

// startReplica runs a real serve.Server on an ephemeral port with an
// httptest /healthz endpoint in front of its metrics handler, returning
// the spec the gateway registers it under.
func startReplica(t testing.TB, cfg serve.Config) (gate.ReplicaSpec, *serve.Server) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s := serve.New(cfg)
	if err := s.Listen(); err != nil {
		t.Fatal(err)
	}
	go func() { _ = s.Serve() }()
	hs := httptest.NewServer(s.Metrics().Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return gate.ReplicaSpec{Addr: s.Addr().String(), HealthURL: hs.URL + "/healthz"}, s
}

// planMix is the weighted multi-key workload the scaling and affinity
// tests offer: six distinct PlanKeys so the ring has something to
// shard, weighted toward the mid-size plans.
func planMix() []loadgen.Spec {
	return []loadgen.Spec{
		{N: 8192, Accuracy: -1, Weight: 2},
		{N: 8192, Segments: 16, Accuracy: -1, Weight: 1},
		{N: 16384, Accuracy: -1, Weight: 3},
		{N: 16384, Taps: 48, Accuracy: -1, Weight: 1},
		{N: 32768, Accuracy: -1, Weight: 2},
		{N: 32768, Segments: 32, Accuracy: -1, Weight: 1},
	}
}

// writeSLO writes a loadgen report to the file named by env (the CI
// artifact hook); unset env means skip.
func writeSLO(t *testing.T, env string, res *loadgen.Result) {
	t.Helper()
	path := os.Getenv(env)
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		t.Logf("SLO report not written: %v", err)
		return
	}
	defer f.Close()
	if err := res.WriteJSON(f); err != nil {
		t.Logf("SLO report not written: %v", err)
	}
}

// TestGateScaling1To3 is the capacity half of the serving-tier e2e:
// real replicas doing real transforms, an open-loop plan-mix workload,
// and the assertion that a 3-replica tier completes at least 2x the
// OK-throughput of a 1-replica tier behind the same gateway.
//
// The replicas run in-process and their work is CPU-bound, so the
// ratio can only materialize when the host can actually run three
// worker goroutines in parallel; below 3 CPUs the test skips (the CI
// gate job runs on 4-vCPU runners and asserts it for every change).
// TestGateScalingWaitBound keeps a scaling assertion alive on small
// machines.
func TestGateScaling1To3(t *testing.T) {
	if runtime.NumCPU() < 3 {
		t.Skipf("scaling needs >= 3 CPUs for 3 CPU-bound replicas; have %d", runtime.NumCPU())
	}
	run := func(nReplicas int) *loadgen.Result {
		var specs []gate.ReplicaSpec
		for i := 0; i < nReplicas; i++ {
			sp, _ := startReplica(t, serve.Config{Workers: 1})
			specs = append(specs, sp)
		}
		g := startGateway(t, gate.Config{Replicas: specs})
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			Addr:        g.Addr().String(),
			Rate:        1600,
			Duration:    2 * time.Second,
			MaxInflight: 96,
			Mix:         planMix(),
			Seed:        42,
			Warmup:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d replica(s):\n%s", nReplicas, res)
		return res
	}
	one := run(1)
	three := run(3)
	writeSLO(t, "GATE_SLO_JSON", three)

	if one.OK == 0 {
		t.Fatal("single-replica run completed no requests")
	}
	ratio := three.ThroughputOK / one.ThroughputOK
	if ratio < 2.0 {
		t.Errorf("3-replica throughput %.1f ok/s is only %.2fx the 1-replica %.1f ok/s; want >= 2x",
			three.ThroughputOK, ratio, one.ThroughputOK)
	}
	if three.Failed > 0 || three.Corrupted > 0 {
		t.Errorf("3-replica run had %d failed / %d corrupted requests", three.Failed, three.Corrupted)
	}
}

// waitMix is the wait-bound scaling workload: six distinct PlanKeys
// like planMix, but with tiny payloads so per-request CPU (copies,
// framing) is negligible next to the replicas' scripted service time
// even on a one-CPU host under the race detector.
func waitMix() []loadgen.Spec {
	return []loadgen.Spec{
		{N: 64, Accuracy: -1, Weight: 2},
		{N: 64, Segments: 4, Accuracy: -1, Weight: 1},
		{N: 128, Accuracy: -1, Weight: 3},
		{N: 128, Taps: 24, Accuracy: -1, Weight: 1},
		{N: 256, Accuracy: -1, Weight: 2},
		{N: 256, Segments: 8, Accuracy: -1, Weight: 1},
	}
}

// slowSerialReplica is a scripted wire peer whose service time is a
// sleep under a per-replica mutex: capacity ~1/delay per replica,
// wait-bound rather than CPU-bound, so tier throughput scales with
// replica count on any machine.
func slowSerialReplica(t *testing.T, delay time.Duration) *fakeReplica {
	t.Helper()
	var mu sync.Mutex
	return newFakeReplica(t, func(req *serve.Request) *serve.Response {
		if req.Op == serve.OpPing {
			return &serve.Response{Status: serve.StatusOK}
		}
		mu.Lock()
		time.Sleep(delay)
		mu.Unlock()
		return okEcho(req)
	})
}

// TestGateScalingWaitBound asserts the gateway itself imposes no
// serialization: with wait-bound replicas of fixed unit capacity, a
// 3-replica tier must complete at least 2x the OK-throughput of a
// 1-replica tier even on a single-CPU host. Routing (affinity plus
// bounded-load spill off the saturated primary) is what spreads the
// six-key mix across the tier.
func TestGateScalingWaitBound(t *testing.T) {
	const delay = 25 * time.Millisecond
	run := func(nReplicas int) *loadgen.Result {
		var reps []*fakeReplica
		for i := 0; i < nReplicas; i++ {
			reps = append(reps, slowSerialReplica(t, delay))
		}
		g := startGateway(t, gate.Config{Replicas: specsOf(reps...)})
		res, err := loadgen.Run(context.Background(), loadgen.Config{
			Addr:        g.Addr().String(),
			Rate:        200,
			Duration:    1500 * time.Millisecond,
			MaxInflight: 32,
			Mix:         waitMix(),
			Seed:        7,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%d replica(s):\n%s", nReplicas, res)
		return res
	}
	one := run(1)
	three := run(3)
	if one.OK == 0 {
		t.Fatal("single-replica run completed no requests")
	}
	ratio := three.ThroughputOK / one.ThroughputOK
	if ratio < 2.0 {
		t.Errorf("3-replica throughput %.1f ok/s is only %.2fx the 1-replica %.1f ok/s; want >= 2x",
			three.ThroughputOK, ratio, one.ThroughputOK)
	}
	if three.Failed > 0 {
		t.Errorf("3-replica run had %d failed requests", three.Failed)
	}
}

// TestGateAffinity checks the routing half of the sharding story: under
// a light plan-mix load (sequential, so no bounded-load spill), more
// than 90% of first routing decisions land on the key's ring primary —
// the property that keeps each replica's plan cache warm and same-plan
// batching effective.
func TestGateAffinity(t *testing.T) {
	var specs []gate.ReplicaSpec
	for i := 0; i < 3; i++ {
		sp, _ := startReplica(t, serve.Config{})
		specs = append(specs, sp)
	}
	g := startGateway(t, gate.Config{Replicas: specs})
	mix := []loadgen.Spec{
		{N: 1024, Accuracy: -1, Weight: 2},
		{N: 2048, Accuracy: -1, Weight: 2},
		{N: 4096, Accuracy: -1, Weight: 1},
		{N: 1024, Segments: 8, Accuracy: -1, Weight: 1},
		{N: 2048, Taps: 48, Accuracy: -1, Weight: 1},
		{N: 4096, Segments: 16, Accuracy: -1, Weight: 1},
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr:        g.Addr().String(),
		Rate:        60,
		Duration:    2 * time.Second,
		MaxInflight: 1,
		Mix:         mix,
		Seed:        3,
		BitCheck:    true,
		Warmup:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("affinity run:\n%s", res)
	if res.OK == 0 || res.Failed > 0 || res.Corrupted > 0 {
		t.Fatalf("light load should fully succeed: ok=%d failed=%d corrupted=%d",
			res.OK, res.Failed, res.Corrupted)
	}
	if aff := g.Metrics().Affinity(); aff < 0.9 {
		t.Errorf("PlanKey affinity %.3f under light load, want > 0.9 (spills=%d)",
			aff, g.Metrics().Spills())
	}
}

// TestGateChaosKillReplicaFailover is the fault half of the e2e:
// mid-stream, the primary replica for the workload's key is killed —
// its link starts resetting every write via faultnet and the server is
// force-shutdown, severing pooled and in-flight connections. Every
// request must still succeed through failover, every spectrum must be
// bit-identical to a locally computed reference, and p99 latency must
// stay within 2x the per-attempt deadline.
func TestGateChaosKillReplicaFailover(t *testing.T) {
	var specs []gate.ReplicaSpec
	servers := map[string]*serve.Server{}
	for i := 0; i < 3; i++ {
		sp, s := startReplica(t, serve.Config{})
		specs = append(specs, sp)
		servers[sp.Addr] = s
	}

	// The chaos dialer: once doomed holds an address, every new
	// connection to it resets on the first write (faultnet makes the
	// link loss deterministic, not a timing accident).
	var doomed atomic.Value
	doomed.Store("")
	chaos := faultnet.Plan{ResetProb: 1, Seed: 11}
	dial := func(addr string) (net.Conn, error) {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		if addr == doomed.Load().(string) {
			return chaos.Conn(c, faultnet.LinkID(0, 1)), nil
		}
		return c, nil
	}

	// A long health interval keeps the active prober from marking the
	// victim draining (its httptest /healthz outlives the force
	// shutdown and reports 503) before traffic trips over the severed
	// connections: the kill must be discovered passively, through the
	// transport-error failover path this test exists to exercise.
	const attemptTimeout = 2 * time.Second
	g := startGateway(t, gate.Config{
		Replicas:       specs,
		HealthInterval: time.Hour,
		AttemptTimeout: attemptTimeout,
		Dial:           dial,
	})

	spec := loadgen.Spec{N: 4096, Accuracy: -1, Weight: 1}
	primary := g.PrimaryFor(soifft.KeyOf(spec.N))
	if _, ok := servers[primary]; !ok {
		t.Fatalf("primary %s is not one of the replicas", primary)
	}

	// Kill the primary mid-stream: arm the resetting link, then sever
	// its existing connections with a force shutdown (expired context).
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		time.Sleep(800 * time.Millisecond)
		doomed.Store(primary)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_ = servers[primary].Shutdown(ctx)
	}()

	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr:           g.Addr().String(),
		Rate:           150,
		Duration:       2500 * time.Millisecond,
		MaxInflight:    8,
		Mix:            []loadgen.Spec{spec},
		Seed:           5,
		RequestTimeout: 2 * attemptTimeout,
		BitCheck:       true,
		Warmup:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	t.Logf("chaos run:\n%s", res)
	writeSLO(t, "GATE_CHAOS_JSON", res)

	if res.OK == 0 {
		t.Fatal("no requests completed")
	}
	if res.Failed > 0 || res.Rejected > 0 {
		t.Errorf("killing one of three replicas lost requests: failed=%d rejected=%d (failover should absorb it)",
			res.Failed, res.Rejected)
	}
	if res.Corrupted > 0 {
		t.Errorf("%d corrupted spectra after failover; answers must stay bit-exact", res.Corrupted)
	}
	if res.Latency.P99 > 2*attemptTimeout {
		t.Errorf("p99 latency %v exceeds 2x the per-attempt deadline %v", res.Latency.P99, attemptTimeout)
	}
	if g.Metrics().Failovers() == 0 {
		t.Error("failovers counter did not move despite the killed primary")
	}
}

// TestGateClusterRollup: the gateway's /debug/cluster roll-up gathers
// the instrumented replica's telemetry snapshot (fetched from the
// /debug/cluster endpoint next to its /healthz) and reports the
// uninstrumented replica with an explanatory error instead.
func TestGateClusterRollup(t *testing.T) {
	spInst, _ := startReplica(t, serve.Config{
		Workers:    1,
		Instrument: soifft.InstrumentTimers,
	})
	spBare, _ := startReplica(t, serve.Config{Workers: 1})

	// One direct transform resolves an instrumented plan on the first
	// replica, giving its serving tier something to snapshot.
	c, err := client.Dial(spInst.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Transform(signal.Random(4096, 1), &client.Options{Segments: 8, Taps: 24}); err != nil {
		t.Fatal(err)
	}

	g := startGateway(t, gate.Config{Replicas: []gate.ReplicaSpec{spInst, spBare}})
	roll := g.ClusterRollup()
	if roll.Schema != gate.RollupSchema || len(roll.Replicas) != 2 {
		t.Fatalf("rollup schema=%q replicas=%d, want %q/2", roll.Schema, len(roll.Replicas), gate.RollupSchema)
	}
	if roll.Gathered != 1 {
		t.Fatalf("rollup gathered %d snapshots, want 1:\n%+v", roll.Gathered, roll.Replicas)
	}
	for _, rc := range roll.Replicas {
		switch rc.Addr {
		case spInst.Addr:
			var snap telemetry.ClusterSnapshot
			if err := json.Unmarshal(rc.Snapshot, &snap); err != nil {
				t.Fatalf("instrumented replica snapshot is not a cluster document: %v", err)
			}
			if snap.World != 1 || len(snap.Ranks) != 1 || snap.Ranks[0].Transforms == 0 {
				t.Errorf("instrumented replica snapshot = world %d, %d ranks, %d transforms; want 1/1/>0",
					snap.World, len(snap.Ranks), snap.Ranks[0].Transforms)
			}
		case spBare.Addr:
			if rc.Snapshot != nil || !strings.Contains(rc.Error, "uninstrumented") {
				t.Errorf("bare replica entry = %+v, want an uninstrumented error and no snapshot", rc)
			}
		default:
			t.Errorf("rollup names unknown replica %q", rc.Addr)
		}
	}
}

// TestGatePayloadRecyclingBitExact is the safety net for the recycled
// wire payloads: client, gateway and both replicas share one process
// and so one free list, and a payload released while a frame still
// carried it would surface in some other request's answer. Eight
// clients send mixed-size forward and inverse requests, each with its
// own input, and every answer must equal a local plan's bits.
func TestGatePayloadRecyclingBitExact(t *testing.T) {
	const clients, perClient = 8, 8
	var specs []gate.ReplicaSpec
	for i := 0; i < 2; i++ {
		sp, _ := startReplica(t, serve.Config{MaxLinger: 2 * time.Millisecond})
		specs = append(specs, sp)
	}
	g := startGateway(t, gate.Config{Replicas: specs})
	plans := map[int]*soifft.Plan{}
	for _, n := range []int{4096, 16384} {
		p, err := soifft.NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		plans[n] = p
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := client.Dial(g.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for k := 0; k < perClient; k++ {
				n, inverse := 4096, (c+k)%2 == 1
				if (c+k)%4 == 0 {
					n = 16384
				}
				in := signal.Random(n, int64(100*c+k))
				want := make([]complex128, n)
				var got []complex128
				if inverse {
					err = plans[n].Inverse(want, in)
					if err == nil {
						got, err = cl.Inverse(in, nil)
					}
				} else {
					err = plans[n].Transform(want, in)
					if err == nil {
						got, err = cl.Transform(in, nil)
					}
				}
				if err != nil {
					errs <- err
					return
				}
				for i := range want {
					if math.Float64bits(real(got[i])) != math.Float64bits(real(want[i])) ||
						math.Float64bits(imag(got[i])) != math.Float64bits(imag(want[i])) {
						errs <- fmt.Errorf("client %d request %d (n=%d inverse=%v): point %d is %v, want %v",
							c, k, n, inverse, i, got[i], want[i])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
