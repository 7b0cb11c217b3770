package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"soifft/internal/instrument"
	"soifft/internal/perfmodel"
)

func sampleFrame() *StatFrame {
	f := &StatFrame{
		Rank:  3,
		World: 8,
		Seq:   42,
		Final: true,
		Shape: Shape{N: 1 << 16, Segments: 8, Taps: 72, Beta: 0.25, Parity: 2, Window: 4},

		Transforms: 7,
		Comm: CommStats{
			Messages: 100, Bytes: 1 << 20, Alltoalls: 7, AlltoallBytes: 9 << 16,
			Retransmits: 1, DeadlineEvents: 2, ChecksumErrors: 0,
			ParityBytes: 1 << 12, RecoveryBytes: 1 << 10, Reconstructions: 3,
			Degraded: 1, StreamChunks: 56, HiddenNs: 5e6, CreditStallNs: 1e6,
		},
		Links: []LinkStat{
			{Peer: 0, FramesSent: 10, BytesSent: 1 << 18, FramesReceived: 9,
				BytesReceived: 1 << 17, FlushNs: 3e6, CreditStallNs: 4e5,
				HeartbeatRTTNs: 2e5, SendErrors: 1},
			{Peer: 5, FramesSent: 2, BytesSent: 999, FlushNs: 1},
		},
	}
	for i := 0; i < int(instrument.NumStages); i++ {
		f.StageNs[i] = int64(i+1) * 1e6
		f.StageCalls[i] = int64(i + 1)
	}
	return f
}

func TestStatFrameRoundTrip(t *testing.T) {
	f := sampleFrame()
	got, err := Unpack(f.Pack())
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", f) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, f)
	}
}

func TestStatFrameRoundTripEmpty(t *testing.T) {
	f := &StatFrame{Rank: 0, World: 1, Seq: 1}
	got, err := Unpack(f.Pack())
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if got.Rank != 0 || got.World != 1 || got.Seq != 1 || len(got.Links) != 0 {
		t.Fatalf("empty frame mangled: %+v", got)
	}
}

func TestUnpackRejectsCorruption(t *testing.T) {
	good := sampleFrame().PackBytes()
	cases := map[string]func([]byte){
		"magic":   func(b []byte) { b[0] ^= 0xFF },
		"version": func(b []byte) { b[4] = 99 },
		"link-count": func(b []byte) {
			b[len(b)-len(sampleFrame().Links)*(4+8*8)-4] = 0xFF
			b[len(b)-len(sampleFrame().Links)*(4+8*8)-3] = 0xFF
			b[len(b)-len(sampleFrame().Links)*(4+8*8)-2] = 0xFF
		},
		"truncated": nil,
	}
	for name, mut := range cases {
		b := append([]byte(nil), good...)
		if mut == nil {
			b = b[:len(b)-5]
		} else {
			mut(b)
		}
		if _, err := UnpackBytes(b); err == nil {
			t.Errorf("%s: corrupt frame accepted", name)
		}
	}
	if _, err := UnpackBytes(nil); err == nil {
		t.Error("nil input accepted")
	}
}

func FuzzStatFrameRoundTrip(f *testing.F) {
	f.Add(sampleFrame().PackBytes())
	f.Add([]byte{})
	f.Add([]byte{0x53, 0x4F, 0x49, 0x54})
	f.Fuzz(func(t *testing.T, b []byte) {
		sf, err := UnpackBytes(b) // must never panic
		if err != nil || sf == nil {
			return
		}
		// A frame that decodes must survive a re-encode round trip.
		again, err := UnpackBytes(sf.PackBytes())
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if again.Rank != sf.Rank || again.Seq != sf.Seq || len(again.Links) != len(sf.Links) {
			t.Fatalf("re-encode drifted: %+v vs %+v", again, sf)
		}
	})
}

func TestAggregatorSupersedesAndStales(t *testing.T) {
	a := NewAggregator(3)
	a.Observe(&StatFrame{Rank: 1, World: 3, Seq: 2, Transforms: 2})
	a.Observe(&StatFrame{Rank: 1, World: 3, Seq: 1, Transforms: 99}) // stale seq, dropped
	a.MarkStale(2, "link reset")

	s := a.Snapshot()
	if !s.Ranks[1].Reported || s.Ranks[1].Transforms != 2 {
		t.Fatalf("rank 1 wrong: %+v", s.Ranks[1])
	}
	if s.Ranks[0].Reported {
		t.Fatalf("rank 0 should be silent: %+v", s.Ranks[0])
	}
	if !s.Ranks[2].Stale || s.Ranks[2].StaleReason != "link reset" {
		t.Fatalf("rank 2 should be stale: %+v", s.Ranks[2])
	}

	// A final frame that already landed wins over a later MarkStale
	// (post-final link teardown is normal shutdown, not a failure).
	a.Observe(&StatFrame{Rank: 1, World: 3, Seq: 3, Final: true})
	a.MarkStale(1, "connection closed")
	if s = a.Snapshot(); s.Ranks[1].Stale {
		t.Fatalf("final rank went stale: %+v", s.Ranks[1])
	}
}

// synthSnapshot builds a 4-rank snapshot where rank 3's exchange is slow
// and its link 3→1 is far under fleet bandwidth, with the stall counters
// attributing the excess.
func synthSnapshot() *ClusterSnapshot {
	a := NewAggregator(4)
	exch := int(instrument.StageExchange)
	for r := 0; r < 4; r++ {
		f := &StatFrame{
			Rank: r, World: 4, Seq: 1, Final: true,
			Shape:      Shape{N: 1 << 16, Segments: 4, Taps: 72, Beta: 0.25, Parity: -1, Window: 2},
			Transforms: 1,
		}
		f.StageNs[exch] = 10e6
		f.Comm.HiddenNs = 10e6
		f.Comm.AlltoallBytes = perfmodel.ExpectedExchangeBytes(1<<16, 4, 0.25)
		for p := 0; p < 4; p++ {
			if p == r {
				continue
			}
			f.Links = append(f.Links, LinkStat{Peer: p, FramesSent: 4, BytesSent: 1 << 20, FlushNs: 10e6})
		}
		if r == 3 {
			f.StageNs[exch] = 100e6 // 10x the fleet median
			f.Comm.HiddenNs = 0
			f.Comm.CreditStallNs = 70e6
			for i := range f.Links {
				if f.Links[i].Peer == 1 {
					f.Links[i].FlushNs = 200e6 // 20x the fleet link time
					f.Links[i].CreditStallNs = 70e6
				}
			}
		}
		a.Observe(f)
	}
	return a.Snapshot()
}

func TestExplainerRanksThrottledLink(t *testing.T) {
	s := synthSnapshot()
	findings := Explain(s)
	if len(findings) == 0 {
		t.Fatal("no findings from a snapshot with a 20x slow link")
	}
	top := findings[0]
	if top.Kind != KindSlowLink || top.Rank != 3 || top.Peer != 1 {
		t.Fatalf("top finding should be slow-link 3->1, got %+v (all: %v)", top, findings)
	}
	if top.Ratio <= RatioThreshold {
		t.Fatalf("top finding ratio %.2f should exceed %.2f", top.Ratio, RatioThreshold)
	}

	var slowStage *Finding
	for i := range findings {
		if findings[i].Kind == KindSlowStage && findings[i].Rank == 3 {
			slowStage = &findings[i]
			break
		}
	}
	if slowStage == nil {
		t.Fatalf("rank 3's 10x exchange produced no slow-stage finding: %v", findings)
	}
	if !strings.Contains(slowStage.Detail, "credit-stall") || !strings.Contains(slowStage.Detail, "3→1") {
		t.Fatalf("slow-stage detail should attribute credit-stall on link 3→1: %q", slowStage.Detail)
	}
}

func TestExplainerStaleOutranksAll(t *testing.T) {
	s := synthSnapshot()
	s.Ranks[2].Stale = true
	s.Ranks[2].StaleReason = "rank died"
	findings := Explain(s)
	if findings[0].Kind != KindStaleRank || findings[0].Rank != 2 {
		t.Fatalf("stale rank should outrank wire findings, got %+v", findings[0])
	}
}

// TestExplainerStaleOutranksAnyRatio: a dead or silent rank is a
// categorical finding, so it ranks above a slow link however far off
// the fleet median that link's time is (one scheduler stall on a link
// that moved a few KB can read 100x and more).
func TestExplainerStaleOutranksAnyRatio(t *testing.T) {
	for _, tc := range []struct {
		name string
		mark func(r *RankStat)
	}{
		{"stale", func(r *RankStat) { r.Stale, r.StaleReason = true, "rank died" }},
		{"never reported", func(r *RankStat) { r.Reported = false }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := synthSnapshot()
			for i := range s.Ranks[3].Links {
				if s.Ranks[3].Links[i].Peer == 1 {
					s.Ranks[3].Links[i].FlushNs = 2000e6 // 200x the fleet link time
				}
			}
			tc.mark(&s.Ranks[2])
			findings := Explain(s)
			var link *Finding
			for i := range findings {
				if findings[i].Kind == KindSlowLink && findings[i].Rank == 3 && findings[i].Peer == 1 {
					link = &findings[i]
				}
			}
			if link == nil || link.Ratio <= 100 {
				t.Fatalf("want a >100x slow-link 3->1 finding, got %v", findings)
			}
			if top := findings[0]; top.Kind != KindStaleRank || top.Rank != 2 {
				t.Fatalf("stale rank 2 should outrank a %.0fx slow link, got top %+v", link.Ratio, top)
			}
		})
	}
}

func TestExplainerQuietOnModel(t *testing.T) {
	a := NewAggregator(2)
	for r := 0; r < 2; r++ {
		f := &StatFrame{Rank: r, World: 2, Seq: 1, Final: true,
			Shape: Shape{N: 1 << 14, Segments: 2, Taps: 72, Beta: 0.25, Parity: -1}, Transforms: 1}
		f.StageNs[instrument.StageExchange] = 5e6
		f.Comm.AlltoallBytes = perfmodel.ExpectedExchangeBytes(1<<14, 2, 0.25)
		f.Links = []LinkStat{{Peer: 1 - r, FramesSent: 2, BytesSent: 1 << 16, FlushNs: 1e6}}
		a.Observe(f)
	}
	if findings := Explain(a.Snapshot()); len(findings) != 0 {
		t.Fatalf("on-model cluster produced findings: %v", findings)
	}
}

// fakeConn wires Plane instances together in-process: rank 0's Receiver
// reads what other ranks Send.
type fakeConn struct {
	rank, world int
	net         *fakeNet
}

type fakeNet struct {
	mu     sync.Mutex
	boxes  map[int]chan []complex128
	killed map[int]error
}

func newFakeNet(world int) *fakeNet {
	n := &fakeNet{boxes: make(map[int]chan []complex128), killed: make(map[int]error)}
	for r := 1; r < world; r++ {
		n.boxes[r] = make(chan []complex128, 64)
	}
	return n
}

func (n *fakeNet) conn(rank, world int) *fakeConn { return &fakeConn{rank: rank, world: world, net: n} }

func (n *fakeNet) kill(rank int, err error) {
	n.mu.Lock()
	n.killed[rank] = err
	close(n.boxes[rank])
	n.mu.Unlock()
}

func (c *fakeConn) Rank() int { return c.rank }
func (c *fakeConn) Size() int { return c.world }

func (c *fakeConn) Send(to, tag int, data []complex128) error {
	if tag != TagStat {
		return fmt.Errorf("unexpected tag %d", tag)
	}
	c.net.mu.Lock()
	dead := c.net.killed[c.rank]
	c.net.mu.Unlock()
	if dead != nil {
		return dead
	}
	c.net.boxes[c.rank] <- data
	return nil
}

func (c *fakeConn) RecvTelemetry(from int) ([]complex128, error) {
	data, ok := <-c.net.boxes[from]
	if !ok {
		c.net.mu.Lock()
		err := c.net.killed[from]
		c.net.mu.Unlock()
		if err == nil {
			err = errors.New("closed")
		}
		return nil, err
	}
	return data, nil
}

func TestPlaneAggregatesAndSurvivesRankDeath(t *testing.T) {
	const world = 4
	net := newFakeNet(world)
	shape := Shape{N: 1 << 12, Segments: world, Taps: 72, Beta: 0.25, Parity: -1}

	root, err := Start(Config{Conn: net.conn(0, world), Shape: shape, FinalTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var peers []*Plane
	for r := 1; r < world; r++ {
		p, err := Start(Config{Conn: net.conn(r, world), Shape: shape})
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, p)
	}

	for _, p := range peers {
		p.OnTransformEnd()
	}
	root.OnTransformEnd()

	// Rank 2 dies mid-run: its link drops before its final frame.
	net.kill(2, errors.New("rank 2: connection reset"))
	peers[1].Final() // must not hang or panic; send just latches off

	peers[0].Final()
	peers[2].Final()
	s := root.Final()
	if s == nil {
		t.Fatal("root Final returned nil snapshot")
	}
	for _, r := range []int{1, 3} {
		if !s.Ranks[r].Final {
			t.Errorf("rank %d should have finished cleanly: %+v", r, s.Ranks[r])
		}
	}
	if !s.Ranks[2].Stale {
		t.Fatalf("dead rank 2 should be stale: %+v", s.Ranks[2])
	}
	if !s.Ranks[2].Reported || s.Ranks[2].Transforms != 0 {
		t.Fatalf("rank 2 should keep its last good frame: %+v", s.Ranks[2])
	}
	var found bool
	for _, f := range s.Findings {
		if f.Kind == KindStaleRank && f.Rank == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("stale rank 2 missing from findings: %v", s.Findings)
	}
}

func TestPlaneNilSafe(t *testing.T) {
	var p *Plane
	p.OnTransformEnd()
	p.Close()
	if p.Final() != nil || p.Snapshot() != nil {
		t.Fatal("nil plane should return nil snapshots")
	}
}

func TestWriteSurfaces(t *testing.T) {
	s := synthSnapshot()
	Explain(s)

	var prom bytes.Buffer
	WritePrometheus(&prom, "", s)
	for _, want := range []string{
		"soifft_cluster_world 4",
		`soifft_cluster_link_bytes{src="3",dst="1"}`,
		`soifft_cluster_findings{kind="slow-link"}`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom.String())
		}
	}

	var txt bytes.Buffer
	WriteText(&txt, s)
	for _, want := range []string{"cluster: world 4", "3->1", "slow-link"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("watch view missing %q:\n%s", want, txt.String())
		}
	}
	WriteText(&txt, nil) // must not panic
}
