package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"soifft/internal/mpi"
	"soifft/internal/mpinet"
	"soifft/internal/signal"
)

// rankRunner runs fn once per rank on a fresh r-rank world and returns
// the per-rank errors. With victim ≥ 0 that rank dies gracefully at the
// coded failpoint (its exchange frames flushed, gone by the view round).
type rankRunner func(t *testing.T, r, victim int, fn func(c Comm) error) []error

func killAt(victim int, die func()) (restore func()) {
	prev := CodedExchangeFailpoint
	CodedExchangeFailpoint = func(rank int) error {
		if rank == victim {
			die()
			return errFailpointKill
		}
		return nil
	}
	return func() { CodedExchangeFailpoint = prev }
}

func runOnMPI(t *testing.T, r, victim int, fn func(c Comm) error) []error {
	t.Helper()
	if victim >= 0 {
		defer killAt(victim, func() {})()
	}
	w, err := mpi.NewWorld(r)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, r)
	if err := w.Run(func(c *mpi.Comm) error {
		var cc Comm = c
		if victim >= 0 {
			cc = &postFlushDeath{Comm: c, victims: map[int]bool{victim: true}}
		}
		errs[c.Rank()] = fn(cc)
		return nil // per-rank errors are judged by the caller
	}); err != nil {
		t.Fatalf("world: %v", err)
	}
	return errs
}

// loopbackMesh connects r mpinet ranks over 127.0.0.1.
func loopbackMesh(t *testing.T, r int) []*mpinet.Proc {
	t.Helper()
	nodes := make([]*mpinet.Node, r)
	addrs := make([]string, r)
	for k := range nodes {
		nd, err := mpinet.NewNode(k, r, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[k], addrs[k] = nd, nd.Addr()
	}
	procs := make([]*mpinet.Proc, r)
	errs := make([]error, r)
	var wg sync.WaitGroup
	for k := range nodes {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			procs[k], errs[k] = nodes[k].Connect(addrs)
		}(k)
	}
	wg.Wait()
	t.Cleanup(func() {
		for _, p := range procs {
			if p != nil {
				p.Close()
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range procs {
		p.SetIOTimeout(5 * time.Second)
	}
	return procs
}

func onMesh(procs []*mpinet.Proc, fn func(p *mpinet.Proc) error) []error {
	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for k, p := range procs {
		wg.Add(1)
		go func(k int, p *mpinet.Proc) {
			defer wg.Done()
			errs[k] = fn(p)
		}(k, p)
	}
	wg.Wait()
	return errs
}

func runOnMesh(t *testing.T, r, victim int, fn func(c Comm) error) []error {
	t.Helper()
	procs := loopbackMesh(t, r)
	if victim >= 0 {
		defer killAt(victim, procs[victim].Shutdown)()
	}
	return onMesh(procs, func(p *mpinet.Proc) error { return fn(p) })
}

// poison overwrites every buffer of a workspace on its way back to the
// free list, so a later read of stale contents — or a goroutine still
// writing after the release (under -race) — cannot go unnoticed.
func poison(ws *distWorkspace) {
	nan := complex(math.NaN(), math.NaN())
	fill := func(b []complex128) {
		b = b[:cap(b)]
		for i := range b {
			b[i] = nan
		}
	}
	for _, b := range [][]complex128{ws.send, ws.recv, ws.halo, ws.parity, ws.parityIn} {
		fill(b)
	}
	for i := 0; i < cap(ws.scratch); i++ {
		sc := <-ws.scratch
		for _, b := range [][]complex128{sc.conv, sc.v, sc.xt} {
			fill(b)
		}
		for i := range sc.stage {
			sc.stage[i] = math.NaN()
		}
		img := sc.img[:cap(sc.img)]
		for i := range img {
			img[i] = 0xFF
		}
		ws.scratch <- sc
	}
}

// TestWorkspacePoisonedReuse runs three transforms of different inputs
// back to back on one plan whose workspaces are poisoned on release, for
// every exchange variant on both transports, and demands each retained
// output — and each retained TakenOver block of a degraded run — equal,
// bit for bit, what a plan that never ran distributed computes. A stale
// buffer read, a workspace released while something still writes it, or
// a result aliasing workspace memory all break the equality.
func TestWorkspacePoisonedReuse(t *testing.T) {
	const r, victim = 4, 1
	refPl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	nLocal := codedParams.N / r
	cases := []struct {
		name   string
		opts   []DistOption
		victim int
	}{
		{"blocking", nil, -1},
		{"window2", []DistOption{WithAsyncWindow(2)}, -1},
		{"coded", []DistOption{WithCoding(1)}, -1},
		{"coded+window2", []DistOption{WithCoding(1), WithAsyncWindow(2)}, -1},
		{"coded+death", []DistOption{WithCoding(1)}, victim},
	}
	for name, run := range map[string]rankRunner{"mpi": runOnMPI, "mpinet": runOnMesh} {
		for _, tc := range cases {
			t.Run(name+"/"+tc.name, func(t *testing.T) {
				pl, err := NewPlan(codedParams)
				if err != nil {
					t.Fatal(err)
				}
				released := 0
				var mu sync.Mutex
				pl.distOnRelease = func(ws *distWorkspace) {
					poison(ws)
					mu.Lock()
					released++
					mu.Unlock()
				}
				type result struct {
					want, got []complex128
					takenOver map[int][]complex128
				}
				var results []result
				for pass := 0; pass < 3; pass++ {
					src := signal.Random(codedParams.N, int64(900+pass))
					res := result{want: make([]complex128, codedParams.N), got: make([]complex128, codedParams.N)}
					if err := refPl.Transform(res.want, src); err != nil {
						t.Fatal(err)
					}
					var tmu sync.Mutex
					errs := run(t, r, tc.victim, func(c Comm) error {
						k := c.Rank()
						_, err := pl.RunDistributed(context.Background(), c,
							res.got[k*nLocal:(k+1)*nLocal], src[k*nLocal:(k+1)*nLocal], tc.opts...)
						var deg *DegradedError
						if errors.As(err, &deg) && tc.victim >= 0 {
							if deg.TakenOver[tc.victim] != nil {
								tmu.Lock()
								res.takenOver = deg.TakenOver
								tmu.Unlock()
							}
							return nil
						}
						return err
					})
					for k, err := range errs {
						if k == tc.victim {
							if !errors.Is(err, errFailpointKill) {
								t.Fatalf("pass %d: victim returned %v, want the failpoint kill", pass, err)
							}
						} else if err != nil {
							t.Fatalf("pass %d rank %d: %v", pass, k, err)
						}
					}
					if tc.victim >= 0 && res.takenOver == nil {
						t.Fatalf("pass %d: no survivor took over rank %d", pass, tc.victim)
					}
					results = append(results, res)
				}
				// Judge only now: the later passes (and their poison) must not
				// have reached back into anything an earlier pass returned.
				for pass, res := range results {
					for k := 0; k < r; k++ {
						got := res.got[k*nLocal : (k+1)*nLocal]
						if k == tc.victim {
							got = res.takenOver[k]
						}
						if len(got) != nLocal || signal.MaxAbsErr(got, res.want[k*nLocal:(k+1)*nLocal]) != 0 {
							t.Errorf("pass %d rank %d: output differs from the fresh-plan spectrum", pass, k)
						}
					}
				}
				if want := 3 * r; tc.victim < 0 && released != want {
					t.Errorf("%d workspaces released, want %d (every clean rank run)", released, want)
				}
				if tc.victim >= 0 && released != 0 {
					t.Errorf("%d workspaces released by degraded runs, want 0", released)
				}
				if n := pl.distFree.Len(); tc.victim < 0 && n != r {
					t.Errorf("free list holds %d workspaces, want the peak concurrency %d", n, r)
				}
			})
		}
	}
}

// TestWorkspaceDroppedOnFailure: a run that fails (here: the world
// aborts under it) must not hand its workspace back.
func TestWorkspaceDroppedOnFailure(t *testing.T) {
	pl, err := NewPlan(codedParams)
	if err != nil {
		t.Fatal(err)
	}
	pl.distOnRelease = func(*distWorkspace) { t.Error("failed run released its workspace") }
	const r = 4
	nLocal := codedParams.N / r
	src := signal.Random(codedParams.N, 7)
	for _, opts := range [][]DistOption{nil, {WithAsyncWindow(2)}, {WithCoding(1)}} {
		w, err := mpi.NewWorld(r)
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("rank 2 gives up")
		err = w.Run(func(c *mpi.Comm) error {
			k := c.Rank()
			if k == 2 {
				return boom // peers abort inside the halo wait or the exchange
			}
			_, err := pl.RunDistributed(context.Background(), c, make([]complex128, nLocal), src[k*nLocal:(k+1)*nLocal], opts...)
			return err
		})
		if err == nil { // rank 2's error, or a survivor's typed loss under coding
			t.Fatal("world succeeded although rank 2 gave up")
		}
	}
	if n := pl.distFree.Len(); n != 0 {
		t.Errorf("free list holds %d workspaces after failed runs, want 0", n)
	}
}

// TestPlanConcurrentTransforms: the run state of a node transform lives
// in a free-listed workspace, and the plan is shared. Four goroutines
// run forward and inverse transforms on one plan at once, at one and two
// workers, and every result must equal the serial reference bit for bit.
// A workspace handed to two runs, or run state left outside it, shows
// here as a wrong spectrum (or, under -race, as a race).
func TestPlanConcurrentTransforms(t *testing.T) {
	const goroutines, passes = 4, 3
	for workers := 1; workers <= 2; workers++ {
		p := Params{N: 1 << 12, P: 8, Mu: 5, Nu: 4, B: 32, Workers: workers}
		pl, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		src := make([][]complex128, goroutines)
		fwd, inv := make([][]complex128, goroutines), make([][]complex128, goroutines)
		for g := range src {
			src[g] = signal.Random(p.N, int64(700+g))
			fwd[g], inv[g] = make([]complex128, p.N), make([]complex128, p.N)
			if err := pl.Transform(fwd[g], src[g]); err != nil {
				t.Fatal(err)
			}
			if err := pl.InverseTransform(inv[g], src[g]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				got := make([]complex128, p.N)
				for pass := 0; pass < passes; pass++ {
					for _, inverse := range []bool{false, true} {
						run, want := pl.Transform, fwd[g]
						if inverse {
							run, want = pl.InverseTransform, inv[g]
						}
						if err := run(got, src[g]); err != nil {
							t.Errorf("workers=%d goroutine %d: %v", workers, g, err)
							return
						}
						if e := signal.MaxAbsErr(got, want); e != 0 {
							t.Errorf("workers=%d goroutine %d pass %d inverse=%v: differs from the serial run by %.3e",
								workers, g, pass, inverse, e)
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestNodeWorkspaceFootprint: a node transform is the one-rank cluster,
// and its workspace holds what the node needs and no more — the
// segment-major array (send, N' elements) and the halo, one tile scratch
// per worker, and no recv, tile copy (v) or segment assembly (xt), since
// window 0 scatters straight into send and F_M' reads it in place. At
// N = 2²⁰ that is ≈ 21.0 MB.
func TestNodeWorkspaceFootprint(t *testing.T) {
	for _, workers := range []int{1, 2} {
		p := Params{N: 1 << 12, P: 8, Mu: 5, Nu: 4, B: 32, Workers: workers}
		pl, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		var released []*distWorkspace
		pl.distOnRelease = func(ws *distWorkspace) { released = append(released, ws) }
		src, dst := signal.Random(p.N, 11), make([]complex128, p.N)
		for pass := 0; pass < 2; pass++ {
			if err := pl.Transform(dst, src); err != nil {
				t.Fatal(err)
			}
		}
		if len(released) != 2 || released[0] != released[1] {
			t.Fatalf("workers=%d: %d releases, want 2 of one reused workspace", workers, len(released))
		}
		ws := released[0]
		if ws.r != 1 || ws.recv != nil {
			t.Errorf("workers=%d: r = %d, recv %d elements; want 1 and none", workers, ws.r, len(ws.recv))
		}
		if got, want := 16*(len(ws.send)+len(ws.halo)), 16*(pl.NPrime()+pl.HaloLen()); got != want {
			t.Errorf("workers=%d: payload buffers %d bytes, want 16·(N'+HaloLen) = %d", workers, got, want)
		}
		if cap(ws.scratch) != workers {
			t.Errorf("workers=%d: %d tile scratches", workers, cap(ws.scratch))
		}
		for i := 0; i < cap(ws.scratch); i++ {
			sc := <-ws.scratch
			if sc.v != nil || sc.xt != nil || sc.img != nil {
				t.Errorf("workers=%d: scratch holds v %d, xt %d elements, img %d bytes; want none", workers, len(sc.v), len(sc.xt), len(sc.img))
			}
			if len(sc.stage) != pl.stageLen() || len(sc.conv) != convTileRows*p.P {
				t.Errorf("workers=%d: tile scratch %d + %d, want %d + %d", workers, len(sc.stage), len(sc.conv), pl.stageLen(), convTileRows*p.P)
			}
			ws.scratch <- sc
		}
		if ws.parity != nil || ws.parityIn != nil {
			t.Errorf("workers=%d: coded buffers allocated by a node run", workers)
		}
	}
}

// TestRankWorkspaceFootprint: a rank's own chunk never leaves send, so
// its recv holds the R−1 chunks of its peers alone: one chunk at R = 2,
// ≈ 5.2 MB less per rank at N = 2²⁰ than a slot per rank.
func TestRankWorkspaceFootprint(t *testing.T) {
	const r = 2
	p := Params{N: 1 << 12, P: 8, Mu: 5, Nu: 4, B: 32, Workers: 1}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var released []*distWorkspace
	pl.distOnRelease = func(ws *distWorkspace) {
		mu.Lock()
		released = append(released, ws)
		mu.Unlock()
	}
	if err := runInproc(pl, r, make([]complex128, p.N), signal.Random(p.N, 12)); err != nil {
		t.Fatal(err)
	}
	if len(released) != r {
		t.Fatalf("%d releases, want %d", len(released), r)
	}
	for _, ws := range released {
		if chunk := len(ws.send) / r; ws.r != r || len(ws.recv) != chunk {
			t.Errorf("rank workspace: r = %d, recv %d elements; want %d and one chunk, %d", ws.r, len(ws.recv), r, chunk)
		}
	}
}

// allocParams is large enough that one payload-sized buffer (a chunk is
// 1.3 MB) dwarfs the 1 MB bookkeeping allowance.
var allocParams = Params{N: 1 << 18, P: 8, Mu: 5, Nu: 4, B: 72}

// runInproc is one distributed transform on a fresh in-process world,
// the shape the benchmark's cluster_inproc workloads time.
func runInproc(pl *Plan, r int, out, in []complex128, opts ...DistOption) error {
	w, err := mpi.NewWorld(r)
	if err != nil {
		return err
	}
	nLocal := len(in) / r
	return w.Run(func(c *mpi.Comm) error {
		k := c.Rank()
		_, err := pl.RunDistributed(context.Background(), c, out[k*nLocal:(k+1)*nLocal], in[k*nLocal:(k+1)*nLocal], opts...)
		return err
	})
}

// TestRunDistributedSteadyStateAllocBytes is the distributed twin of
// TestTransformSteadyStateAllocs: on a warm plan with caller-owned
// buffers, one transform of a 2-rank world allocates bookkeeping only
// (≤ 1 MB), on every exchange and both transports. Every exchange
// receives into the workspace; the in-process stream lends its chunks,
// in-process Send copies into buffers RecvInto recycles, and the mesh
// encodes and decodes through its links' pooled wire buffers. A workspace
// buffer or a payload copy back on the per-call path is 1.3 MB or more.
func TestRunDistributedSteadyStateAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("payload-sized runs on both transports are too slow under -race")
	}
	const r = 2
	pl, err := NewPlan(allocParams)
	if err != nil {
		t.Fatal(err)
	}
	in := signal.Random(allocParams.N, 3)
	out := make([]complex128, allocParams.N)
	procs := loopbackMesh(t, r)
	onWire := func(pl *Plan, r int, out, in []complex128, opts ...DistOption) error {
		nLocal := len(in) / r
		return errors.Join(onMesh(procs, func(p *mpinet.Proc) error {
			k := p.Rank()
			_, err := pl.RunDistributed(context.Background(), p, out[k*nLocal:(k+1)*nLocal], in[k*nLocal:(k+1)*nLocal], opts...)
			return err
		})...)
	}
	for _, tc := range []struct {
		name string
		run  func(pl *Plan, r int, out, in []complex128, opts ...DistOption) error
		opts []DistOption
	}{
		{"blocking", runInproc, nil},
		{"streamed", runInproc, []DistOption{WithAsyncWindow(2)}},
		{"coded", runInproc, []DistOption{WithCoding(1)}},
		{"mpinet/blocking", onWire, nil},
		{"mpinet/streamed", onWire, []DistOption{WithAsyncWindow(2)}},
		{"mpinet/coded", onWire, []DistOption{WithCoding(1)}},
	} {
		for warm := 0; warm < 2; warm++ {
			if err := tc.run(pl, r, out, in, tc.opts...); err != nil {
				t.Fatal(err)
			}
		}
		const ops = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < ops; i++ {
			if err := tc.run(pl, r, out, in, tc.opts...); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		perOp := (after.TotalAlloc - before.TotalAlloc) / ops
		t.Logf("%s: %d bytes/op", tc.name, perOp)
		if perOp > 1<<20 {
			t.Errorf("%s: %d bytes/op, want ≤ 1 MB", tc.name, perOp)
		}
	}
}

func benchmarkRunDistributed(b *testing.B, opts ...DistOption) {
	const n, ranks = 1 << 18, 8
	pl, err := NewPlan(Params{N: n, P: 8, Mu: 5, Nu: 4, B: 72})
	if err != nil {
		b.Fatal(err)
	}
	src := signal.Random(n, 5)
	dst := make([]complex128, n)
	b.SetBytes(int64(n) * 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runInproc(pl, ranks, dst, src, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// The distributed pipeline end to end on in-process ranks, one fresh
// world per transform: blocking, streamed and coded side by side.
func BenchmarkRunDistributedBlocking(b *testing.B) { benchmarkRunDistributed(b) }
func BenchmarkRunDistributedStreamed(b *testing.B) { benchmarkRunDistributed(b, WithAsyncWindow(2)) }
func BenchmarkRunDistributedCoded(b *testing.B)    { benchmarkRunDistributed(b, WithCoding(1)) }
