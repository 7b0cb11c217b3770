package mpinet

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"soifft/internal/baseline"
	"soifft/internal/core"
	"soifft/internal/exch"
	"soifft/internal/instrument"
	"soifft/internal/signal"
	"soifft/internal/telemetry"
)

// TestCommContractReturnsFaults runs every fallible core.Comm method, and
// the comparators built on them, against a failed peer on both links —
// an in-process world aborted by its other rank, and a TCP mesh whose
// other rank has closed. Each call must return, within twice the I/O
// deadline and without panicking, one typed failure: a *TransportError
// (a core.Fault) naming the failed peer and wrapping the link's cause,
// ErrAborted in process and ErrPeerClosed on the mesh. A call naming a
// rank outside the world names that rank instead, with its own cause.
func TestCommContractReturnsFaults(t *testing.T) {
	const ioT = 300 * time.Millisecond
	type recvTelemetry interface {
		RecvTelemetry(from int) ([]complex128, error)
	}
	ops := []struct {
		name string
		peer int // the rank the failure must name
		call func(c core.Comm) error
	}{
		{"Send", 1, func(c core.Comm) error { return c.Send(1, 5, []complex128{1}) }},
		{"RecvC", 1, func(c core.Comm) error {
			_, err := c.RecvC(1, 5)
			return err
		}},
		{"RecvInto", 1, func(c core.Comm) error { return c.RecvInto(make([]complex128, 1), 1, 5) }},
		{"StartAlltoallv", 1, func(c core.Comm) error {
			return exch.Alltoall(c, make([]complex128, 2), make([]complex128, 2), 1)
		}},
		{"Gather", 1, func(c core.Comm) error {
			_, err := c.Gather(0, make([]complex128, 1))
			return err
		}},
		{"StreamSend", 1, func(c core.Comm) error {
			st := c.StartAlltoallv(exch.Options{Sizes: []int{1}, Recv: make([]complex128, 2), Window: 1})
			defer st.Close()
			return st.Send(1, 0, []complex128{1})
		}},
		{"StreamNext", 1, func(c core.Comm) error {
			st := c.StartAlltoallv(exch.Options{Sizes: []int{1}, Recv: make([]complex128, 2), Window: 1})
			defer st.Close()
			for {
				ch, ok := st.Next()
				if !ok {
					return nil
				}
				if ch.Err != nil {
					return ch.Err
				}
			}
		}},
		{"RecvTelemetry", 1, func(c core.Comm) error {
			_, err := c.(recvTelemetry).RecvTelemetry(1)
			return err
		}},
		// A rank outside the world is a Fault too, not a panic.
		{"Send/invalid rank", 7, func(c core.Comm) error { return c.Send(7, 5, []complex128{1}) }},
		{"RecvInto/invalid rank", -1, func(c core.Comm) error { return c.RecvInto(make([]complex128, 1), -1, 5) }},
		{"StreamSend/invalid rank", 7, func(c core.Comm) error {
			st := c.StartAlltoallv(exch.Options{Sizes: []int{1}, Recv: make([]complex128, 2), Window: 1})
			defer st.Close()
			return st.Send(7, 0, []complex128{1})
		}},
		{"SixStep.Transform", 1, func(c core.Comm) error {
			_, err := baseline.SixStep{}.Transform(c, make([]complex128, 8), make([]complex128, 8), 16)
			return err
		}},
		{"BinaryExchange.Transform", 1, func(c core.Comm) error {
			_, err := baseline.BinaryExchange{}.Transform(c, make([]complex128, 8), make([]complex128, 8), 16)
			return err
		}},
	}
	// Each transport hands the call rank 0 of a two-rank world whose rank
	// 1 has already failed, and returns the call's error; cause is what
	// the failed link's calls wrap.
	transports := []struct {
		name  string
		cause error
		run   func(t *testing.T, call func(c core.Comm) error) error
	}{
		{"mpi", ErrAborted, func(t *testing.T, call func(c core.Comm) error) error {
			w, err := NewWorld(2)
			if err != nil {
				t.Fatal(err)
			}
			var got error
			_ = w.Run(func(c *Proc) error {
				if c.Rank() == 1 {
					return errors.New("rank 1 dies")
				}
				if _, err := c.RecvC(1, 99); err == nil { // returns once the world aborted
					t.Error("the world did not abort")
				}
				got = call(c)
				return nil
			})
			return got
		}},
		{"mpinet", ErrPeerClosed, func(t *testing.T, call func(c core.Comm) error) error {
			procs := chaosMesh(t, 2, ioT, nil)
			procs[1].Close()
			for deadline := time.Now().Add(2 * ioT); procs[0].Stats().LinkFailures == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("rank 0 never saw its peer close")
				}
			}
			return call(procs[0])
		}},
	}
	// A frame with another tag from a live peer is the same typed failure
	// on both transports, with one cause, never a panic.
	mistagged := map[string]func(t *testing.T, recv func(c core.Comm) error) error{
		"mpi": func(t *testing.T, recv func(c core.Comm) error) error {
			w, err := NewWorld(2)
			if err != nil {
				t.Fatal(err)
			}
			var got error
			if err := w.Run(func(c *Proc) error {
				if c.Rank() == 1 {
					return c.Send(0, 6, []complex128{1})
				}
				got = recv(c)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			return got
		},
		"mpinet": func(t *testing.T, recv func(c core.Comm) error) error {
			procs := chaosMesh(t, 2, ioT, nil)
			if err := procs[1].Send(0, 6, []complex128{1}); err != nil {
				t.Fatal(err)
			}
			return recv(procs[0])
		},
	}
	for name, run := range mistagged {
		t.Run(name+"/mis-tagged frame", func(t *testing.T) {
			err := run(t, func(c core.Comm) error {
				_, err := c.RecvC(1, 5)
				return err
			})
			var te *TransportError
			if !errors.As(err, &te) || te.Rank != 1 || !errors.Is(err, ErrTagMismatch) {
				t.Errorf("a mis-tagged frame returned %T (%v), want a *TransportError naming rank 1 and wrapping ErrTagMismatch", err, err)
			}
			if !errors.As(err, new(core.Fault)) {
				t.Errorf("a mis-tagged frame returned %T (%v), not a core.Fault", err, err)
			}
		})
	}

	for _, tr := range transports {
		for _, op := range ops {
			t.Run(tr.name+"/"+op.name, func(t *testing.T) {
				var elapsed time.Duration
				err := tr.run(t, func(c core.Comm) (err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panicked: %v", r)
							t.Errorf("%s panicked: %v", op.name, r)
						}
					}()
					start := time.Now()
					defer func() { elapsed = time.Since(start) }()
					return op.call(c)
				})
				if err == nil {
					t.Fatalf("%s on a failed peer returned nil", op.name)
				}
				if !errors.As(err, new(core.Fault)) {
					t.Errorf("%s returned %T (%v), not a core.Fault", op.name, err, err)
				}
				var te *TransportError
				if !errors.As(err, &te) || te.Rank != op.peer {
					t.Errorf("%s returned %v, want a *TransportError naming rank %d", op.name, err, op.peer)
				}
				if valid := op.peer == 1; errors.Is(err, tr.cause) != valid {
					t.Errorf("%s returned %v: wraps %v = %v, want %v", op.name, err, tr.cause, !valid, valid)
				}
				if elapsed > 2*ioT {
					t.Errorf("%s took %v, over twice the %v deadline", op.name, elapsed, ioT)
				}
			})
		}
	}
}

// TestCommContractCountsOnce runs one transform per row — each link
// under the blocking, the streamed and the coded exchange — and holds
// every view of the traffic to the one count in the links. The
// recorder's all-to-all bytes and chunks, the ranks' stream band and, in
// process, World.Stats equal the analytic 16(1+β)N(R−1)/R. The frames
// the links carried in (LinkStats, Stats) are the payloads sent plus one
// header each, in the stream band and in all. A clean coded run books its
// parity and no recovery.
func TestCommContractCountsOnce(t *testing.T) {
	const n, ranks = 4096, 4
	prm := core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: 48}
	pl, err := core.NewPlan(prm)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 29)
	nLocal := n / ranks
	model := int64(16 * n * prm.Mu / prm.Nu * (ranks - 1) / ranks)
	chunk := pl.MPrime() / ranks * (prm.P / ranks)

	// Each link runs fn on every rank of a fresh 4-rank world and returns
	// the ranks, and in process the world.
	links := []struct {
		name string
		hdr  int64 // wire bytes a frame adds to its payload
		run  func(t *testing.T, fn func(p *Proc) error) ([]*Proc, *World)
	}{
		{"memory", 0, func(t *testing.T, fn func(p *Proc) error) ([]*Proc, *World) {
			w, err := NewWorld(ranks)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(fn); err != nil {
				t.Fatal(err)
			}
			return w.procs, w
		}},
		{"socket", frameHdrLen, func(t *testing.T, fn func(p *Proc) error) ([]*Proc, *World) {
			procs := mesh(t, ranks)
			spmd(t, procs, fn)
			return procs, nil
		}},
	}
	exchanges := []struct {
		name   string
		parity int
		opts   []core.DistOption
	}{
		{"window 0", 0, nil},
		{"window 2", 0, []core.DistOption{core.WithAsyncWindow(2)}},
		{"coded m=1", 1, []core.DistOption{core.WithCoding(1)}},
	}
	for _, l := range links {
		for _, x := range exchanges {
			t.Run(l.name+"/"+x.name, func(t *testing.T) {
				rec := instrument.New(instrument.LevelCounters)
				opts := append([]core.DistOption{core.WithRecorder(rec)}, x.opts...)
				got := make([]complex128, n)
				procs, w := l.run(t, func(p *Proc) error {
					k := p.Rank()
					_, err := pl.RunDistributed(context.Background(), p,
						got[k*nLocal:(k+1)*nLocal], src[k*nLocal:(k+1)*nLocal], opts...)
					return err
				})

				var sent exch.Bands
				var in, inStream telemetry.LinkStat
				var st NetStats
				for _, p := range procs {
					for b, v := range p.Sent() {
						sent[b].Messages += v.Messages
						sent[b].Bytes += v.Bytes
					}
					pls := p.LinkStats()
					if len(pls) != ranks-1 {
						t.Errorf("rank %d reports %d links, want %d", p.Rank(), len(pls), ranks-1)
					}
					for _, ls := range pls {
						in.FramesReceived += ls.FramesReceived
						in.BytesReceived += ls.BytesReceived
						in.BytesSent += ls.BytesSent
						if w != nil && (ls.FlushNs != 0 || ls.CreditStallNs != 0 || ls.HeartbeatRTTNs != 0) {
							t.Errorf("in-process link %d→%d reports wire timing: %+v", p.Rank(), ls.Peer, ls)
						}
					}
					for _, pe := range p.peers {
						if pe != nil {
							sb := pe.bands[exch.BandStream].in.load()
							inStream.FramesReceived += sb.Messages
							inStream.BytesReceived += sb.Bytes
						}
					}
					s := p.Stats()
					st.FramesReceived += s.FramesReceived
					st.BytesReceived += s.BytesReceived
				}
				var payload int64
				for _, v := range sent {
					payload += v.Bytes
				}
				stream, c := sent[exch.BandStream], rec.Snapshot().Comm

				if stream.Bytes != model || c.AlltoallBytes != stream.Bytes || c.StreamChunks != stream.Messages {
					t.Errorf("stream band %d bytes in %d chunks, recorder %d in %d, want the model's %d",
						stream.Bytes, stream.Messages, c.AlltoallBytes, c.StreamChunks, model)
				}
				if want := stream.Bytes + l.hdr*inStream.FramesReceived; inStream.BytesReceived != want {
					t.Errorf("links carried %d stream bytes in, want the payload plus headers, %d", inStream.BytesReceived, want)
				}
				if want := payload + l.hdr*in.FramesReceived; in.BytesReceived != want ||
					st.BytesReceived != in.BytesReceived || st.FramesReceived != in.FramesReceived {
					t.Errorf("ΣLinkStats carried %d bytes in %d frames, ΣStats %d in %d, want the payload plus headers, %d",
						in.BytesReceived, in.FramesReceived, st.BytesReceived, st.FramesReceived, want)
				}
				if w != nil {
					ws := w.Stats()
					if ws.AlltoallBytes != stream.Bytes || ws.P2PBytes != payload || in.BytesSent != payload || ws.Alltoalls != 1 {
						t.Errorf("World.Stats %+v and ΣLinkStats %d sent, want stream %d, payload %d and one all-to-all",
							ws, in.BytesSent, stream.Bytes, payload)
					}
				}
				if want := int64(ranks * x.parity * chunk * 16); c.ParityBytes != want || sent[exch.BandParity].Bytes != want {
					t.Errorf("parity: recorder %d, band %d, want %d", c.ParityBytes, sent[exch.BandParity].Bytes, want)
				}
				if c.RecoveryBytes != 0 {
					t.Errorf("a clean run booked %d recovery bytes", c.RecoveryBytes)
				}
			})
		}
	}
}
