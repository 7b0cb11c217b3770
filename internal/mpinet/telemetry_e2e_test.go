// Telemetry-plane e2e over real TCP: stat frames ride the transform's
// own links on the dedicated control tag, rank 0 aggregates and runs
// the perfmodel-backed explainer. The two contracts under test: a rank
// dying mid-run freezes as stale without blocking the aggregation
// (Final returns within its bound), and a genuinely throttled link is
// what the explainer names as the top finding — with the measured
// ratio, not a guess.
package mpinet

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"soifft/internal/core"
	"soifft/internal/faultnet"
	"soifft/internal/instrument"
	"soifft/internal/signal"
	"soifft/internal/telemetry"
)

// armPlanes starts one telemetry plane per rank, each on its own
// recorder, over the procs' own links.
func armPlanes(t *testing.T, procs []*Proc, recs []*instrument.Recorder,
	shape telemetry.Shape, finalTimeout time.Duration) []*telemetry.Plane {
	t.Helper()
	planes := make([]*telemetry.Plane, len(procs))
	for r, p := range procs {
		pl, err := telemetry.Start(telemetry.Config{
			Conn:         p,
			Recorder:     recs[r],
			Shape:        shape,
			FinalTimeout: finalTimeout,
		})
		if err != nil {
			t.Fatalf("rank %d: start plane: %v", r, err)
		}
		planes[r] = pl
	}
	return planes
}

// TestChaosTelemetryRankDeath: after a clean transform, one rank dies
// without shipping its final frame. Rank 0's Final must return within
// its bound (stale, not hang), freezing the victim at its last good
// frame and ranking the staleness as the top finding, while the
// survivors' rows finish final.
func TestChaosTelemetryRankDeath(t *testing.T) {
	const n, ranks, victim = 2048, 4, 2
	const ioT = time.Second
	pl, err := core.NewPlan(core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: 48})
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 17)
	procs := chaosMesh(t, ranks, ioT, nil)
	recs := make([]*instrument.Recorder, ranks)
	for r := range recs {
		recs[r] = instrument.New(instrument.LevelTimers)
	}
	planes := armPlanes(t, procs, recs,
		telemetry.Shape{N: n, Segments: 8, Beta: 0.25, Parity: -1}, 3*time.Second)

	nLocal := n / ranks
	got := make([]complex128, n)
	errs, _ := runRanks(t, procs, 10*time.Second, func(p *Proc) error {
		rank := p.Rank()
		_, err := pl.RunDistributed(context.Background(), p,
			got[rank*nLocal:(rank+1)*nLocal], src[rank*nLocal:(rank+1)*nLocal],
			core.WithRecorder(recs[rank]), core.WithTelemetry(planes[rank]))
		return err
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d clean transform: %v", r, err)
		}
	}

	// Give rank 0's drains a beat to consume the end-of-transform frames,
	// then kill the victim before it ships a final frame.
	time.Sleep(100 * time.Millisecond)
	procs[victim].Close()
	for r := 1; r < ranks; r++ {
		if r != victim {
			planes[r].Final()
		}
	}

	start := time.Now()
	snap := planes[0].Final()
	elapsed := time.Since(start)
	if snap == nil {
		t.Fatal("rank 0 Final returned no snapshot")
	}
	if limit := 3*time.Second + 2*time.Second; elapsed > limit {
		t.Errorf("Final took %v, over the %v stale bound: aggregation hung on the dead rank", elapsed, limit)
	}
	for r, rs := range snap.Ranks {
		switch r {
		case victim:
			if !rs.Stale {
				t.Errorf("victim rank %d not stale: %+v", r, rs)
			}
			if rs.Reported && rs.Transforms != 1 {
				t.Errorf("victim frozen at %d transforms, want the last good frame's 1", rs.Transforms)
			}
		case 0:
			if !rs.Final {
				t.Errorf("rank 0 row not final: %+v", rs)
			}
		default:
			if !rs.Final || rs.Stale {
				t.Errorf("survivor rank %d final=%v stale=%v, want final and not stale", r, rs.Final, rs.Stale)
			}
		}
	}
	if len(snap.Findings) == 0 {
		t.Fatal("no findings on a run with a dead rank")
	}
	top := snap.Findings[0]
	if top.Kind != telemetry.KindStaleRank || top.Rank != victim {
		t.Errorf("top finding = %+v, want stale-rank for rank %d", top, victim)
	}
}

// TestTelemetryInProcessLinks: a telemetry plane over a memory world
// sees its links. Every rank's final frame carries its R−1 links with
// the bytes they moved, and with no flush time to price, no link is
// found slow.
func TestTelemetryInProcessLinks(t *testing.T) {
	const n, ranks = 2048, 4
	pl, err := core.NewPlan(core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: 48})
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 31)
	w, err := NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	defer w.procs[0].Close() // aborts the world
	recs := make([]*instrument.Recorder, ranks)
	for r := range recs {
		recs[r] = instrument.New(instrument.LevelTimers)
	}
	planes := armPlanes(t, w.procs, recs,
		telemetry.Shape{N: n, Segments: 8, Beta: 0.25, Parity: -1}, 5*time.Second)

	nLocal := n / ranks
	got := make([]complex128, n)
	if err := w.Run(func(p *Proc) error {
		rank := p.Rank()
		_, err := pl.RunDistributed(context.Background(), p,
			got[rank*nLocal:(rank+1)*nLocal], src[rank*nLocal:(rank+1)*nLocal],
			core.WithRecorder(recs[rank]), core.WithTelemetry(planes[rank]))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	for r := 1; r < ranks; r++ {
		planes[r].Final()
	}
	snap := planes[0].Final()
	if snap == nil {
		t.Fatal("rank 0 Final returned no snapshot")
	}
	for r, rs := range snap.Ranks {
		if len(rs.Links) != ranks-1 {
			t.Errorf("rank %d frame carries %d links, want %d", r, len(rs.Links), ranks-1)
		}
		for _, l := range rs.Links {
			if l.BytesSent <= 0 || l.FramesSent <= 0 {
				t.Errorf("link %d→%d reports no traffic: %+v", r, l.Peer, l)
			}
		}
	}
	for _, f := range snap.Findings {
		if f.Kind == telemetry.KindSlowLink {
			t.Errorf("in-process run found a slow link: %s", f)
		}
	}
}

// TestAsyncThrottledLinkExplained is the telemetry acceptance run: a
// 4-rank TCP mesh with exactly one directed link (3→1) throttled by
// faultnet, a streamed transform, and the assertion that the explainer's
// top finding names that link with a measured ratio above the 1.5×
// threshold. When CLUSTER_JSON names a path, the aggregated snapshot is
// written there — the CI artifact.
func TestAsyncThrottledLinkExplained(t *testing.T) {
	const n, ranks = 1 << 16, 4
	const slowSrc, slowDst = 3, 1
	const ioT = 10 * time.Second
	pl, err := core.NewPlan(core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: 48})
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 23)

	// Size the throttle from the analytic per-link exchange volume:
	// 16·(1+β)·N/R² bytes should take ~0.5s on the slow link while every
	// other link runs at loopback speed.
	perLinkBytes := float64(n) * 1.25 * 16 / float64(ranks*ranks)
	plan := faultnet.Plan{Seed: 7, BandwidthBps: perLinkBytes / 0.5}
	procs := chaosMesh(t, ranks, ioT, func(self, peer int, c net.Conn) net.Conn {
		if self == slowSrc && peer == slowDst {
			return plan.Conn(c, faultnet.LinkID(self, peer))
		}
		return c
	})
	recs := make([]*instrument.Recorder, ranks)
	for r := range recs {
		recs[r] = instrument.New(instrument.LevelTimers)
	}
	planes := armPlanes(t, procs, recs,
		telemetry.Shape{N: n, Segments: 8, Beta: 0.25, Parity: -1, Window: 2}, ioT)

	nLocal := n / ranks
	got := make([]complex128, n)
	errs, _ := runRanks(t, procs, 2*ioT, func(p *Proc) error {
		rank := p.Rank()
		_, err := pl.RunDistributed(context.Background(), p,
			got[rank*nLocal:(rank+1)*nLocal], src[rank*nLocal:(rank+1)*nLocal],
			core.WithAsyncWindow(2),
			core.WithRecorder(recs[rank]), core.WithTelemetry(planes[rank]))
		return err
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r := 1; r < ranks; r++ {
		planes[r].Final()
	}
	snap := planes[0].Final()
	if snap == nil {
		t.Fatal("rank 0 Final returned no snapshot")
	}
	if path := os.Getenv("CLUSTER_JSON"); path != "" {
		b, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			t.Fatalf("marshal snapshot: %v", err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatalf("write %s: %v", path, err)
		}
		t.Logf("cluster snapshot written to %s", path)
	}

	if len(snap.Findings) == 0 {
		t.Fatal("no findings despite a link throttled well past the threshold")
	}
	for i, f := range snap.Findings {
		t.Logf("finding %d: severity %.1f %s", i, f.Severity, f)
	}
	top := snap.Findings[0]
	if top.Kind != telemetry.KindSlowLink || top.Rank != slowSrc || top.Peer != slowDst {
		t.Errorf("top finding = [%s] rank %d peer %d, want slow-link %d→%d",
			top.Kind, top.Rank, top.Peer, slowSrc, slowDst)
	}
	if top.Ratio <= telemetry.RatioThreshold {
		t.Errorf("top finding ratio %.2f, want > %.1f for a link this throttled",
			top.Ratio, telemetry.RatioThreshold)
	}
	if want := fmt.Sprintf("%d→%d", slowSrc, slowDst); !containsStr(top.Detail, want) {
		t.Errorf("top finding detail %q does not name link %s", top.Detail, want)
	}
}

func containsStr(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}
