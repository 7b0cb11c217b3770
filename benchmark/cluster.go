package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"soifft/internal/baseline"
	"soifft/internal/core"
	"soifft/internal/erasure"
	"soifft/internal/faultnet"
	"soifft/internal/instrument"
	"soifft/internal/mpi"
	"soifft/internal/mpinet"
	"soifft/internal/signal"
)

// linkBandwidthBps is the rate every mesh link is throttled to. It is a
// constant of the benchmark, never calibrated from the run: at N = 2^19
// it makes the wire about 1.8× the compute, the regime the paper's claim
// is about.
const linkBandwidthBps = 32e6

// parityShares is the coded workload's parity budget m.
const parityShares = 1

// streamWindow is the streamed workload's in-flight chunk window.
const streamWindow = 2

// meshIOTimeout bounds any single wire operation, so a broken mesh fails
// typed instead of hanging the benchmark.
const meshIOTimeout = 60 * time.Second

// cluster is Plan.RunDistributed on two ranks: over a fresh in-process
// world per transform, or over a loopback TCP mesh built once whose
// links are throttled.
type cluster struct {
	wname  string
	n      int
	wire   bool
	coded  bool
	window int

	pl        *core.Plan
	rec       *instrument.Recorder // observes traced ops only
	planBuild time.Duration

	procs   []*mpinet.Proc
	connect time.Duration
}

func newCluster(name string, n int) *cluster {
	c := &cluster{wname: name, n: n}
	switch name {
	case wInprocCoded:
		c.coded = true
	case wWireBlocking:
		c.wire = true
	case wWireStreamed:
		c.wire, c.window = true, streamWindow
	}
	return c
}

func (c *cluster) name() string       { return c.wname }
func (c *cluster) size() int          { return c.n }
func (c *cluster) bitReference() bool { return c.coded || c.window > 0 }

func (c *cluster) model() byteModel {
	m := 0
	if c.coded {
		m = parityShares
	}
	return analyticBytes(c.n, ranks, planMu, planNu, planB, planP, m)
}

func (c *cluster) setup() error {
	t0 := time.Now()
	pl, err := core.NewPlan(planParams(c.n, 1))
	if err != nil {
		return err
	}
	c.planBuild = time.Since(t0)
	c.pl = pl
	c.rec = instrument.New(instrument.LevelTimers)
	if c.wire {
		t0 = time.Now()
		c.procs, err = connectMesh(ranks, faultnet.Plan{Seed: 1, BandwidthBps: linkBandwidthBps})
		c.connect = time.Since(t0)
	}
	return err
}

func (c *cluster) close() {
	for _, p := range c.procs {
		p.Close()
	}
	c.procs = nil
}

// connectMesh builds a size-rank loopback TCP mesh with every link
// wrapped by plan.
func connectMesh(size int, plan faultnet.Plan) ([]*mpinet.Proc, error) {
	nodes := make([]*mpinet.Node, size)
	addrs := make([]string, size)
	for r := range nodes {
		nd, err := mpinet.NewNode(r, size, "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		self := r
		nd.SetConnWrapper(func(peer int, conn net.Conn) net.Conn {
			return plan.Conn(conn, faultnet.LinkID(self, peer))
		})
		nodes[r], addrs[r] = nd, nd.Addr()
	}
	procs := make([]*mpinet.Proc, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := range nodes {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			procs[r], errs[r] = nodes[r].Connect(addrs)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, p := range procs {
				if p != nil {
					p.Close()
				}
			}
			return nil, err
		}
	}
	for _, p := range procs {
		p.SetIOTimeout(meshIOTimeout)
	}
	return procs, nil
}

// onMesh runs fn on every rank of the mesh at once and returns the time
// from releasing the ranks together to the last one coming back.
func onMesh(procs []*mpinet.Proc, fn func(p *mpinet.Proc) error) (time.Duration, error) {
	start := make(chan struct{})
	errs := make([]error, len(procs))
	var wg sync.WaitGroup
	for r, p := range procs {
		wg.Add(1)
		go func(r int, p *mpinet.Proc) {
			defer wg.Done()
			<-start
			var err error
			if fault := core.GuardComm(func() { err = fn(p) }); fault != nil {
				err = fault
			}
			errs[r] = err
		}(r, p)
	}
	t0 := time.Now()
	close(start)
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return wall, err
		}
	}
	return wall, nil
}

func (c *cluster) options(tr *tracer, blocking bool) []core.DistOption {
	var opts []core.DistOption
	if c.coded {
		opts = append(opts, core.WithCoding(parityShares))
	}
	if c.window > 0 && !blocking {
		opts = append(opts, core.WithAsyncWindow(c.window))
	}
	if tr != nil {
		opts = append(opts, core.WithRecorder(c.rec))
	}
	return opts
}

func (c *cluster) run(tr *tracer, op int, out, x []complex128) (opResult, error) {
	return c.runWith(tr, op, out, x, ranks, c.options(tr, false))
}

// runWith is one distributed transform on r ranks. In process the world
// is fresh per transform and its creation and join are inside the wall;
// on the mesh the ranks are released together.
func (c *cluster) runWith(tr *tracer, op int, out, x []complex128, r int, opts []core.DistOption) (opResult, error) {
	res := opResult{ranks: make([]core.DistributedTimes, r)}
	nLocal := c.n / r
	root := tr.begin("op", op, -1, 0)
	defer tr.end(root)
	rank := func(comm core.Comm, parent int) error {
		k := comm.Rank()
		sp := tr.begin("core.Plan.RunDistributed", op, parent, k+1)
		dt, err := c.pl.RunDistributed(context.Background(), comm,
			out[k*nLocal:(k+1)*nLocal], x[k*nLocal:(k+1)*nLocal], opts...)
		tr.end(sp)
		res.ranks[k] = dt
		return err
	}

	if !c.wire {
		t0 := time.Now()
		sp := tr.begin("mpi.NewWorld", op, root, 0)
		world, err := mpi.NewWorld(r)
		tr.end(sp)
		if err != nil {
			return res, err
		}
		sp = tr.begin("mpi.World.Run", op, root, 0)
		err = world.Run(func(comm *mpi.Comm) error { return rank(comm, sp) })
		tr.end(sp)
		res.wall = time.Since(t0)
		st := world.Stats()
		// Every inter-rank payload of the in-process runtime goes through
		// Send, the all-to-all's included, so P2PBytes is the total.
		res.bytes, res.a2as, res.a2aB = st.P2PBytes, st.Alltoalls, st.AlltoallBytes
		return res, err
	}

	before := meshStats(c.procs)
	wall, err := onMesh(c.procs, func(p *mpinet.Proc) error { return rank(p, root) })
	after := meshStats(c.procs)
	res.wall = wall
	res.bytes = after.BytesSent - before.BytesSent
	res.frames = after.FramesSent - before.FramesSent
	return res, err
}

// meshStats sums the transport counters over the ranks.
func meshStats(procs []*mpinet.Proc) mpinet.NetStats {
	var sum mpinet.NetStats
	for _, p := range procs {
		s := p.Stats()
		sum.FramesSent += s.FramesSent
		sum.BytesSent += s.BytesSent
		sum.DeadlineEvents += s.DeadlineEvents
		sum.ChecksumErrors += s.ChecksumErrors
		sum.LinkFailures += s.LinkFailures
	}
	return sum
}

// critical returns the rank that bounds the transform (largest total)
// and the spread between the slowest and the fastest rank.
func critical(dts []core.DistributedTimes) (crit core.DistributedTimes, skew time.Duration) {
	lo := dts[0].Total()
	for _, dt := range dts {
		if dt.Total() > crit.Total() {
			crit = dt
		}
		lo = min(lo, dt.Total())
	}
	return crit, crit.Total() - lo
}

// distStages are the medians, over ops, of the critical rank's stage
// times, the wall they leave over, the rank skew, and the longest halo
// stage of any rank (the critical rank is the one that did not wait).
type distStages struct {
	halo, convolve, exchange, segment, remainder, skew, haloMax float64
}

func stagesOf(ops []opResult) distStages {
	var halo, conv, exch, seg, rest, skew, haloMax []float64
	for _, r := range ops {
		crit, sk := critical(r.ranks)
		var hm time.Duration
		for _, dt := range r.ranks {
			hm = max(hm, dt.Halo)
		}
		haloMax = append(haloMax, ms(hm))
		halo = append(halo, ms(crit.Halo))
		conv = append(conv, ms(crit.Convolve))
		exch = append(exch, ms(crit.Exchange))
		seg = append(seg, ms(crit.SegmentFT))
		rest = append(rest, ms(r.wall-crit.Total()))
		skew = append(skew, ms(sk))
	}
	return distStages{median(halo), median(conv), median(exch), median(seg), median(rest), median(skew), median(haloMax)}
}

func (c *cluster) layers(lc *layerCtx) error {
	v, n := lc.vals, len(lc.traced)
	v.set("core.plan_build_ms", ms(c.planBuild), 1)

	st := stagesOf(lc.traced)
	parts := []part{
		{"core.dist_halo_ms", st.halo}, {"core.dist_convolve_ms", st.convolve},
		{"core.dist_exchange_ms", st.exchange}, {"core.dist_segment_ms", st.segment},
		{"core.dist_remainder_ms", st.remainder},
	}
	for _, p := range parts {
		v.set(p.name, p.ms, n)
	}
	v.set("core.rank_skew_ms", st.skew, n)
	lc.note(reconcile(lc.plainP50, parts))

	m := c.model()
	last := lc.traced[n-1]
	lc.note(fmt.Sprintf("bytes per transform: measured %d; model all-to-all 16(1+b)N(R-1)/R = %d + halo 16(B-1)P*R = %d + parity %d = %d; ratio %.6f; SOI ceiling vs three all-to-alls 3/(1+b) = %.1f",
		last.bytes, m.a2a, m.halo, m.parity, m.total(), bytesOverModel(last.bytes, m.total()),
		3*float64(planNu)/float64(planMu)))

	// What the recorder saw of the traced ops.
	snap := c.rec.Snapshot()
	exchWall := snap.Stages[instrument.StageExchange].Wall
	perRankOp := float64(n * ranks)
	v.set("exch.visible_exchange_ms", st.exchange, n)
	v.set("exch.overlap_ratio", snap.Comm.OverlapRatio(exchWall), n)
	v.set("exch.credit_stall_ms", ms(snap.Comm.CreditStall)/perRankOp, n)
	v.set("erasure.parity_bytes", float64(snap.Comm.ParityBytes)/float64(n), n)
	if c.coded {
		lc.note(fmt.Sprintf("coded exchange per transform: parity %d bytes (recorder), view and agreement rounds %d bytes (measured - model)",
			snap.Comm.ParityBytes/int64(n), last.bytes-m.total()))
	}

	if err := kernelProbes(lc, c.pl, c.n, ranks); err != nil {
		return err
	}
	if c.wire {
		return c.wireLayers(lc, st)
	}
	return c.inprocLayers(lc)
}

// chunkElems is the element count one rank addresses to one destination
// in the exchange.
func (c *cluster) chunkElems() int { return c.pl.NPrime() / (ranks * ranks) }

func (c *cluster) inprocLayers(lc *layerCtx) error {
	v, reps, n := lc.vals, lc.rc.sc.probeReps, len(lc.traced)
	last := lc.traced[n-1]
	v.set("mpi.a2a_count", float64(last.a2as), n)
	v.set("mpi.a2a_bytes", float64(last.a2aB), n)
	v.set("mpi.p2p_bytes", float64(last.bytes), n)

	// One Alltoall of the exchange's chunk size on a two-rank world.
	chunk := c.chunkElems()
	send := make([]complex128, ranks*chunk)
	var a2a []float64
	for rep := 0; rep < reps; rep++ {
		world, err := mpi.NewWorld(ranks)
		if err != nil {
			return err
		}
		walls := make([]float64, ranks)
		err = world.Run(func(comm *mpi.Comm) error {
			sp := lc.tr.begin("mpi.Comm.Alltoall", -1, -1, comm.Rank()+1)
			t0 := time.Now()
			comm.Alltoall(send, chunk)
			walls[comm.Rank()] = ms(time.Since(t0))
			lc.tr.end(sp)
			return nil
		})
		if err != nil {
			return err
		}
		a2a = append(a2a, max(walls[0], walls[1]))
	}
	v.set("mpi.alltoall_ms", median(a2a), reps)
	v.set("mpi.alltoall_gbs", float64(c.model().a2a)/(median(a2a)*1e6), reps)

	// The three-all-to-all reference on the same kind of world.
	six, err := sixStep(lc, c.n, reps)
	if err != nil {
		return err
	}
	v.set("baseline.sixstep_ms", six.wallMs, reps)
	v.set("baseline.sixstep_a2a_count", float64(six.a2as), reps)
	v.set("baseline.sixstep_a2a_bytes", float64(six.a2aBytes), reps)
	lc.note(fmt.Sprintf("free wire: six-step (three all-to-alls, %d bytes) %.2f ms vs this workload (%d bytes) %.2f ms",
		six.a2aBytes, six.wallMs, last.bytes, lc.plainP50))

	if c.coded {
		if err := c.codedLayers(lc); err != nil {
			return err
		}
	} else if err := c.oversubscribed(lc); err != nil {
		return err
	}
	return nil
}

type sixStepResult struct {
	wallMs, computeMs float64
	a2as, a2aBytes    int64
}

// sixStep runs baseline.SixStep on fresh in-process two-rank worlds and
// checks its output like any other transform.
func sixStep(lc *layerCtx, n, reps int) (sixStepResult, error) {
	var res sixStepResult
	in := lc.ins[0]
	if len(in.x) != n {
		return res, fmt.Errorf("six-step: input has %d points, want %d", len(in.x), n)
	}
	out := make([]complex128, n)
	nLocal := n / ranks
	var walls, computes []float64
	for rep := 0; rep < reps; rep++ {
		world, err := mpi.NewWorld(ranks)
		if err != nil {
			return res, err
		}
		tms := make([]baseline.Times, ranks)
		sp := lc.tr.begin("baseline.SixStep.Transform", -1, -1, 0)
		t0 := time.Now()
		err = world.Run(func(comm *mpi.Comm) error {
			k := comm.Rank()
			var err error
			tms[k], err = baseline.SixStep{}.Transform(comm, out[k*nLocal:(k+1)*nLocal], in.x[k*nLocal:(k+1)*nLocal], n)
			return err
		})
		walls = append(walls, ms(time.Since(t0)))
		lc.tr.end(sp)
		if err != nil {
			return res, err
		}
		computes = append(computes, ms(max(tms[0].Compute, tms[1].Compute)))
		st := world.Stats()
		res.a2as, res.a2aBytes = st.Alltoalls, st.AlltoallBytes
	}
	if rel := signal.RelErrL2(out, in.ref); !(rel <= maxRelErr) {
		return res, fmt.Errorf("six-step: rel-L2 error %.3e exceeds %.0e", rel, maxRelErr)
	}
	res.wallMs, res.computeMs = median(walls), median(computes)
	return res, nil
}

// codedLayers times the erasure code by direct calls on a payload of the
// exchange's size, and the flat exchange beside the coded one.
func (c *cluster) codedLayers(lc *layerCtx) error {
	v, reps := lc.vals, lc.rc.sc.probeReps
	code, err := erasure.New(ranks, parityShares)
	if err != nil {
		return err
	}
	shareBytes := 16 * c.chunkElems()
	data := make([][]byte, ranks)
	for i := range data {
		data[i] = erasure.ComplexToBytes(nil, lc.ins[0].x[i*c.chunkElems():(i+1)*c.chunkElems()])
	}
	parity := [][]byte{make([]byte, shareBytes)}
	var enc, rec []float64
	for rep := 0; rep < reps; rep++ {
		enc = append(enc, lc.call("erasure.Code.Encode", func() { err = code.Encode(data, parity) }))
		if err != nil {
			return err
		}
		shares := [][]byte{nil, data[1], parity[0]}
		rec = append(rec, lc.call("erasure.Code.Reconstruct", func() { err = code.Reconstruct(shares) }))
		if err != nil {
			return err
		}
		if string(shares[0]) != string(data[0]) {
			return fmt.Errorf("erasure: reconstructed share differs from the original")
		}
	}
	payloadMB := float64(ranks*shareBytes) / 1e6
	v.set("erasure.encode_mbs", payloadMB/(median(enc)/1e3), reps)
	v.set("erasure.reconstruct_mbs", payloadMB/(median(rec)/1e3), reps)

	// The flat exchange on the same plan, inputs and world kind.
	out := make([]complex128, c.n)
	var walls []float64
	for rep := 0; rep < lc.rc.sc.tracedOps; rep++ {
		res, err := c.runWith(nil, -1, out, lc.ins[rep%len(lc.ins)].x, ranks, nil)
		if err != nil {
			return err
		}
		walls = append(walls, ms(res.wall))
	}
	v.set("erasure.coded_over_flat", lc.plainP50/median(walls), len(walls))
	return nil
}

// oversubscribed explains the halo wall of BENCH_soi.json, which was
// recorded with four goroutine ranks time-sliced on GOMAXPROCS(1): it
// runs the old file's middle size and this workload's own shape at four
// ranks on one processor, next to two ranks on two.
//
// On one processor a rank runs until it blocks or its 10 ms time slice
// ends. At N = 2^16 a rank's convolve is a millisecond, so the first
// rank posts its prefix, convolves, and then sits in its halo receive
// until its neighbour has been scheduled: its halo stage is a peer's
// compute, not 36 KB of traffic. At N = 2^20 a convolve outlasts the
// slice, every rank posts its prefix within its first slice, and the
// wait moves into the rank skew.
func (c *cluster) oversubscribed(lc *layerCtx) error {
	const many = 4
	small := newCluster(wInproc, lc.rc.sc.nOversub)
	if err := small.setup(); err != nil {
		return err
	}
	x := lc.ins[0].x[:small.n]
	run := func(cl *cluster, x []complex128, r, procs int) (distStages, error) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		out := make([]complex128, cl.n)
		var ops []opResult
		for i := 0; i < lc.rc.sc.oversubOps; i++ {
			res, err := cl.runWith(lc.tr, -1, out, x, r, nil)
			if err != nil {
				return distStages{}, err
			}
			ops = append(ops, res)
		}
		return stagesOf(ops), nil
	}
	rows := []struct {
		cl       *cluster
		x        []complex128
		r, procs int
		label    string
	}{
		{small, x, many, 1, "counts and skew only - ranks > cores, wall not comparable"},
		{small, x, ranks, maxProcs, "a core per rank: the same 16(B-1)P halo bytes per rank, no wait"},
		{c, lc.ins[0].x, many, 1, "counts and skew only - ranks > cores, wall not comparable"},
	}
	for i, row := range rows {
		st, err := run(row.cl, row.x, row.r, row.procs)
		if err != nil {
			return err
		}
		if i == 0 {
			lc.vals.set("core.oversub_halo_ms", st.haloMax, lc.rc.sc.oversubOps)
			lc.vals.set("core.oversub_rank_skew_ms", st.skew, lc.rc.sc.oversubOps)
		}
		lc.note(fmt.Sprintf("halo anomaly: N=%d, %d ranks on GOMAXPROCS=%d: longest halo stage of any rank %.2f ms, core.rank_skew_ms %.2f, convolve %.2f  [%s]",
			row.cl.n, row.r, row.procs, st.haloMax, st.skew, st.convolve, row.label))
	}
	two := stagesOf(lc.traced)
	lc.note(fmt.Sprintf("halo anomaly: N=%d, %d ranks on GOMAXPROCS=%d: longest halo stage of any rank %.2f ms, core.rank_skew_ms %.2f, convolve %.2f  [this workload's traced ops]",
		c.n, ranks, maxProcs, two.haloMax, two.skew, two.convolve))
	return nil
}

func (c *cluster) wireLayers(lc *layerCtx, st distStages) error {
	v, reps, n := lc.vals, lc.rc.sc.probeReps, len(lc.traced)
	last := lc.traced[n-1]
	m := c.model()
	v.set("mpinet.connect_ms", ms(c.connect), 1)
	v.set("mpinet.bytes_sent", float64(last.bytes), n)
	v.set("mpinet.frames_sent", float64(last.frames), n)
	v.set("mpinet.frame_overhead_pct", 100*(float64(last.bytes)/float64(m.total())-1), n)

	// Round trip of one element, rank 0 → 1 → 0.
	const pings, tagPing = 200, 7
	one := []complex128{1}
	wall, err := onMesh(c.procs, func(p *mpinet.Proc) error {
		for i := 0; i < pings; i++ {
			if p.Rank() == 0 {
				p.Send(1, tagPing, one)
				p.RecvC(1, tagPing)
			} else {
				p.RecvC(0, tagPing)
				p.Send(0, tagPing, one)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	v.set("mpinet.rtt_us", float64(wall.Microseconds())/pings, pings)

	// One blocking Alltoall of the exchange's chunk size, on this mesh
	// and on an unthrottled one: the second is what framing, checksums,
	// syscalls and copies cost, and the difference is the time the shaper
	// paced, which gives the link rate it delivered.
	clean, err := connectMesh(ranks, faultnet.Plan{})
	if err != nil {
		return err
	}
	defer func() {
		for _, p := range clean {
			p.Close()
		}
	}()
	chunk := c.chunkElems()
	send := make([]complex128, ranks*chunk)
	var a2a, a2aClean []float64
	for rep := 0; rep < reps; rep++ {
		wall, err := meshAlltoall(lc.tr, c.procs, send, chunk)
		if err != nil {
			return err
		}
		a2a = append(a2a, ms(wall))
		if wall, err = meshAlltoall(lc.tr, clean, send, chunk); err != nil {
			return err
		}
		a2aClean = append(a2aClean, ms(wall))
	}
	v.set("mpinet.alltoall_ms", median(a2a), reps)
	v.set("mpinet.alltoall_clean_ms", median(a2aClean), reps)
	achieved := float64(16*chunk) / ((median(a2a) - median(a2aClean)) / 1e3) / 1e6
	v.set("mpinet.link_mbs_achieved", achieved, reps)
	lc.note(fmt.Sprintf("link: all-to-all of %d bytes per link %.2f ms throttled, %.2f ms unthrottled; the shaper paced %.2f MB/s of %.0f MB/s configured (%+.1f%%)",
		16*chunk, median(a2a), median(a2aClean), achieved, linkBandwidthBps/1e6, 100*(achieved*1e6/linkBandwidthBps-1)))

	end := meshStats(c.procs)
	v.set("mpinet.deadline_events", float64(end.DeadlineEvents), 1)
	v.set("mpinet.checksum_errors", float64(end.ChecksumErrors), 1)
	v.set("mpinet.link_failures", float64(end.LinkFailures), 1)

	if c.window > 0 {
		// The blocking exchange on the same mesh and inputs: what the
		// stream hides is the difference of the two exchange stages.
		out := make([]complex128, c.n)
		var ops []opResult
		for rep := 0; rep < reps; rep++ {
			k := rep % len(lc.ins)
			res, err := c.runWith(nil, -1, out, lc.ins[k].x, ranks, c.options(nil, true))
			if err != nil {
				return err
			}
			if !sameBits(out, lc.bitRefs[k]) {
				return fmt.Errorf("blocking mesh output differs in bits from the in-process blocking output")
			}
			ops = append(ops, res)
		}
		block := stagesOf(ops)
		v.set("exch.hidden_ms", block.exchange-st.exchange, reps)
		lc.note(fmt.Sprintf("exchange stage: blocking %.2f ms, streamed (visible) %.2f ms on the same mesh", block.exchange, st.exchange))
		return nil
	}

	// The paper's sentence as a number, composed: three blocking
	// all-to-alls of N points on this mesh plus the six-step's compute
	// measured in process, because baseline.SixStep takes a concrete
	// *mpi.Comm and cannot run on the mesh.
	chunk3 := c.n / (ranks * ranks)
	send3 := make([]complex128, ranks*chunk3)
	var three []float64
	for rep := 0; rep < max(3, reps/3); rep++ {
		var sum time.Duration
		for i := 0; i < 3; i++ {
			wall, err := meshAlltoall(lc.tr, c.procs, send3, chunk3)
			if err != nil {
				return err
			}
			sum += wall
		}
		three = append(three, ms(sum))
	}
	six, err := sixStep(lc, c.n, reps)
	if err != nil {
		return err
	}
	v.set("baseline.a2a_3xN_wire_ms", median(three), len(three))
	speedup := (median(three) + six.computeMs) / lc.plainP50
	v.set("baseline.speedup_vs_3x", speedup, len(three))
	lc.note(fmt.Sprintf("composed: (three all-to-alls of N on the wire %.2f ms + six-step compute in process %.2f ms) / SOI wall %.2f ms = %.2fx; ceiling 3/(1+b) = %.1f",
		median(three), six.computeMs, lc.plainP50, speedup, 3*float64(planNu)/float64(planMu)))
	return nil
}

// meshAlltoall is one blocking Proc.Alltoall on every rank of a mesh.
func meshAlltoall(tr *tracer, procs []*mpinet.Proc, send []complex128, chunk int) (time.Duration, error) {
	return onMesh(procs, func(p *mpinet.Proc) error {
		sp := tr.begin("mpinet.Proc.Alltoall", -1, -1, p.Rank()+1)
		p.Alltoall(send, chunk)
		tr.end(sp)
		return nil
	})
}
