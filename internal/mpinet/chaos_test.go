// Chaos suite: full distributed SOI transforms across in-process ranks
// over real TCP, under a matrix of seeded faultnet plans. The invariant
// under test is the transport's whole contract: every run either
// produces a correct spectrum or returns typed *TransportError values
// within twice the configured I/O deadline — never a panic, never a
// hang. CI runs this file with
// `go test -race -run Chaos ./...`.
package mpinet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"soifft/internal/core"
	"soifft/internal/faultnet"
	"soifft/internal/fft"
	"soifft/internal/signal"
)

// chaosMesh is mesh() plus fault injection and deadlines: wrap (if non
// nil) decorates every link right after the hello exchange, and each
// proc gets the given per-operation I/O deadline.
func chaosMesh(t *testing.T, size int, ioTimeout time.Duration,
	wrap func(self, peer int, c net.Conn) net.Conn) []*Proc {
	t.Helper()
	nodes := make([]*Node, size)
	addrs := make([]string, size)
	for r := 0; r < size; r++ {
		n, err := NewNode(r, size, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if wrap != nil {
			self := r
			n.SetConnWrapper(func(peer int, c net.Conn) net.Conn {
				return wrap(self, peer, c)
			})
		}
		nodes[r] = n
		addrs[r] = n.Addr()
	}
	procs := make([]*Proc, size)
	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			procs[r], errs[r] = nodes[r].Connect(addrs)
			if errs[r] == nil {
				procs[r].SetIOTimeout(ioTimeout)
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d connect: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, p := range procs {
			p.Close()
		}
	})
	return procs
}

// runRanks executes fn on every rank concurrently with a watchdog: a run
// that has not finished well past the 2×deadline budget is a hang, the
// exact failure mode the hardened transport must rule out.
func runRanks(t *testing.T, procs []*Proc, budget time.Duration, fn func(p *Proc) error) ([]error, time.Duration) {
	t.Helper()
	errs := make([]error, len(procs))
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for i, p := range procs {
			wg.Add(1)
			go func(i int, p *Proc) {
				defer wg.Done()
				errs[i] = fn(p)
			}(i, p)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(budget + 8*time.Second):
		t.Fatalf("ranks still blocked %v past the %v fault budget: transport hung", 8*time.Second, budget)
	}
	return errs, time.Since(start)
}

// TestChaosMatrix drives the full distributed transform + gather under
// every fault family, three seeds each, with rank 1's links faulty.
func TestChaosMatrix(t *testing.T) {
	const n, ranks, faulty = 2048, 4, 1
	const ioT = time.Second
	pl, err := core.NewPlan(core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: 48})
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 13)
	want := make([]complex128, n)
	fft.Direct(want, src)
	nLocal := n / ranks

	scenarios := []struct {
		name string
		plan faultnet.Plan
	}{
		{"throttle", faultnet.Plan{BandwidthBps: 4 << 20, Latency: time.Millisecond}},
		{"drop", faultnet.Plan{DropProb: 0.4, After: 2}},
		{"corrupt", faultnet.Plan{CorruptProb: 0.4, After: 2}},
		{"reset", faultnet.Plan{ResetProb: 0.4, After: 2}},
		{"hang", faultnet.Plan{HangProb: 0.4, After: 2}},
		{"partial", faultnet.Plan{PartialProb: 0.5, After: 1}},
	}
	for _, sc := range scenarios {
		for seed := int64(1); seed <= 3; seed++ {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				plan := sc.plan
				plan.Seed = seed
				procs := chaosMesh(t, ranks, ioT, func(self, peer int, c net.Conn) net.Conn {
					if self != faulty {
						return c
					}
					return plan.Conn(c, faultnet.LinkID(self, peer))
				})
				got := make([]complex128, n)
				full := make([]complex128, n)
				errs, elapsed := runRanks(t, procs, 2*ioT, func(p *Proc) error {
					out := got[p.Rank()*nLocal : (p.Rank()+1)*nLocal]
					if _, err := pl.RunDistributed(context.Background(), p, out, src[p.Rank()*nLocal:(p.Rank()+1)*nLocal]); err != nil {
						return err
					}
					g, err := p.Gather(0, out)
					if p.Rank() == 0 {
						copy(full, g)
					}
					return err
				})

				failed := false
				for r, err := range errs {
					if err == nil {
						continue
					}
					failed = true
					var te *TransportError
					var fault core.Fault
					if !errors.As(err, &te) || !errors.As(err, &fault) {
						t.Errorf("rank %d returned untyped error %T: %v", r, err, err)
					} else {
						t.Logf("rank %d: typed fault after %v: %v", r, elapsed, err)
					}
				}
				if !failed {
					if e := signal.RelErrL2(full, want); e > 1e-8 {
						t.Errorf("fault-free run produced wrong spectrum: rel err %.3e", e)
					}
					return
				}
				// The typed-error half of the invariant: failures must
				// land within 2× the deadline (plus compute slack).
				if limit := 2*ioT + 2*time.Second; elapsed > limit {
					t.Errorf("faulted run took %v, over the %v bound", elapsed, limit)
				}
			})
		}
	}
}

// TestChaosCorruptFrameNamesSender is the CRC acceptance check: a bit
// flipped in flight by faultnet must surface as a typed checksum error
// naming the sending rank.
func TestChaosCorruptFrameNamesSender(t *testing.T) {
	const sender = 1
	plan := faultnet.Plan{Seed: 11, CorruptProb: 1}
	procs := chaosMesh(t, 2, 0, func(self, peer int, c net.Conn) net.Conn {
		if self != sender {
			return c
		}
		return plan.Conn(c, faultnet.LinkID(self, peer))
	})
	payload := make([]complex128, 256) // header is <1% of the frame, so the flip lands in the payload
	for i := range payload {
		payload[i] = complex(float64(i), -float64(i))
	}
	errs, _ := runRanks(t, procs, 2*time.Second, func(p *Proc) error {
		if p.Rank() == sender {
			return p.Send(0, 9, payload)
		}
		_, err := p.RecvC(sender, 9)
		return err
	})
	err := errs[0]
	if err == nil {
		t.Fatal("receiver accepted a corrupted frame")
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("receiver error is %T, want *TransportError: %v", err, err)
	}
	if te.Rank != sender {
		t.Errorf("TransportError names rank %d, want sender rank %d", te.Rank, sender)
	}
	if !errors.Is(err, ErrChecksum) {
		t.Errorf("cause is %v, want ErrChecksum", err)
	}
}

// TestChaosHungPeerDetectedWithinDeadline: a peer whose writes silently
// hang must be declared dead within the deadline budget, not never.
func TestChaosHungPeerDetectedWithinDeadline(t *testing.T) {
	const ioT = 500 * time.Millisecond
	plan := faultnet.Plan{Seed: 5, HangProb: 1}
	procs := chaosMesh(t, 2, ioT, func(self, peer int, c net.Conn) net.Conn {
		if self != 1 {
			return c
		}
		return plan.Conn(c, faultnet.LinkID(self, peer))
	})
	errs, elapsed := runRanks(t, procs, 2*ioT, func(p *Proc) error {
		if p.Rank() == 1 {
			return p.Send(0, 3, []complex128{1})
		}
		_, err := p.RecvC(1, 3)
		return err
	})
	err := errs[0]
	if err == nil {
		t.Fatal("receiver got data from a hung peer")
	}
	var te *TransportError
	if !errors.As(err, &te) {
		t.Fatalf("receiver error is %T, want *TransportError: %v", err, err)
	}
	if !te.Timeout() && !errors.Is(err, ErrPeerClosed) {
		t.Errorf("hung peer surfaced as %v, want a timeout or peer-death cause", err)
	}
	if limit := 2*ioT + time.Second; elapsed > limit {
		t.Errorf("hung peer detected after %v, over the %v bound", elapsed, limit)
	}
}

// TestChaosHeartbeatKeepsIdleLinkAlive: deadlines must not misfire on a
// healthy link that simply has nothing to say for longer than the
// deadline — heartbeats carry it.
func TestChaosHeartbeatKeepsIdleLinkAlive(t *testing.T) {
	const ioT = 300 * time.Millisecond
	procs := chaosMesh(t, 2, ioT, nil)
	errs, _ := runRanks(t, procs, 4*time.Second, func(p *Proc) error {
		time.Sleep(4 * ioT) // well past the deadline, link idle throughout
		other := 1 - p.Rank()
		if err := p.Send(other, 8, []complex128{complex(float64(p.Rank()), 0)}); err != nil {
			return err
		}
		got, err := p.RecvC(other, 8)
		if err == nil && (len(got) != 1 || got[0] != complex(float64(other), 0)) {
			err = fmt.Errorf("rank %d got %v", p.Rank(), got)
		}
		return err
	})
	for r, err := range errs {
		if err != nil {
			t.Errorf("idle-but-healthy link failed on rank %d: %v", r, err)
		}
	}
}

// peerDeath closes victim's proc outright (every socket dies, queued
// frames unflushed) while the survivors run fn; every survivor must get
// a typed transport error, promptly.
func peerDeath(t *testing.T, victim int, fn func(p *Proc) error) {
	t.Helper()
	const ioT = 500 * time.Millisecond
	procs := chaosMesh(t, 4, ioT, nil)
	errs, _ := runRanks(t, procs, 2*ioT, func(p *Proc) error {
		if p.Rank() == victim {
			p.Close()
			return nil
		}
		return fn(p)
	})
	for r, err := range errs {
		if r == victim {
			continue
		}
		if err == nil {
			t.Errorf("surviving rank %d returned nil, want a typed transport error", r)
			continue
		}
		var te *TransportError
		if !errors.As(err, &te) {
			t.Errorf("surviving rank %d returned untyped %T: %v", r, err, err)
		}
	}
}

func TestChaosPeerDeathAlltoall(t *testing.T) {
	peerDeath(t, 2, func(p *Proc) error {
		_, err := p.Alltoall(make([]complex128, 4*8), 8)
		return err
	})
}

func TestChaosPeerDeathGather(t *testing.T) {
	// Root is a survivor: it errors on the dead rank's chunk; the other
	// survivors hit the barrier that follows (as every real driver does)
	// and find rank 0 already gone.
	peerDeath(t, 2, func(p *Proc) error {
		if _, err := p.Gather(0, make([]complex128, 8)); err != nil {
			return err
		}
		return p.Barrier()
	})
}

func TestChaosPeerDeathBarrier(t *testing.T) {
	peerDeath(t, 2, (*Proc).Barrier)
}

// TestChaosOversizedFrameRejected: a frame length from the wire must be
// validated against MaxFrameElems before any allocation happens (the
// readLoop OOM vector).
func TestChaosOversizedFrameRejected(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	l := newSockLink(a, 1, &Proc{rank: 0, size: 2, peers: make([]*peer, 2)})
	go l.readLoop()

	hdr := encodeFrame(0, nil) // valid magic + checksum, then poison the count
	hdr[8] = 0xFF              // count LSB
	hdr[14] = 0xFF             // count ≈ 2^52 elements ≈ 2^56 bytes
	go func() { _, _ = b.Write(hdr) }()

	_, err := l.pe.box.get(5 * time.Second)
	if err == nil {
		t.Fatal("oversized frame was accepted")
	}
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame surfaced as %v, want ErrFrameTooLarge", err)
	}
}

// TestChaosOldMagicFrameRejected: a frame from a peer on an older wire
// format — "SOI1" codes parity shares differently, "SOI2" orders chunk
// elements row-major at the same payload size — kills the link with
// ErrBadFrame instead of being decoded as if it were current.
func TestChaosOldMagicFrameRejected(t *testing.T) {
	for _, old := range []struct {
		name  string
		magic uint32
	}{{"SOI1", 0x31494F53}, {"SOI2", 0x32494F53}} {
		t.Run(old.name, func(t *testing.T) {
			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			l := newSockLink(a, 1, &Proc{rank: 0, size: 2, peers: make([]*peer, 2)})
			go l.readLoop()

			frame := encodeFrame(3, []complex128{1, 2})
			binary.LittleEndian.PutUint32(frame[20:24], old.magic) // the CRC does not cover the magic
			go func() { _, _ = b.Write(frame) }()

			_, err := l.pe.box.get(5 * time.Second)
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("%s frame surfaced as %v, want ErrBadFrame", old.name, err)
			}
		})
	}
}

// TestChaosSendFailsFastAfterWriterDeath is the deadlock regression: a
// dead writeLoop used to stop draining the 4096-frame queue, so the
// 4097th Send blocked forever. Sends to a dead peer must fail fast.
func TestChaosSendFailsFastAfterWriterDeath(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	l := newSockLink(a, 1, &Proc{rank: 0, size: 2, peers: make([]*peer, 2)})
	go l.writeLoop()
	_ = b.Close() // every write on a now fails

	frame := encodeFrame(7, []complex128{1})
	done := make(chan error, 1)
	go func() {
		var firstErr error
		for i := 0; i < 10000; i++ { // far beyond the 4096 buffer
			if err := l.sendFrame(frame, nil); err != nil {
				firstErr = err
				break
			}
		}
		done <- firstErr
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("10000 sends to a dead peer all claimed success")
		}
		if !errors.Is(err, ErrPeerClosed) && !errors.Is(err, ErrDeadline) {
			t.Errorf("dead-peer send failed with %v, want a typed wire cause", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("send to a dead peer blocked instead of failing fast")
	}
	close(l.out)
}
