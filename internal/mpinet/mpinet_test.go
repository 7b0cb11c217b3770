package mpinet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"soifft/internal/baseline"
	"soifft/internal/conv"
	"soifft/internal/core"
	"soifft/internal/exch"
	"soifft/internal/fft"
	"soifft/internal/signal"
)

// mesh builds a fully connected localhost world of the given size, one
// goroutine per rank (the wire is still real TCP).
func mesh(t *testing.T, size int) []*Proc {
	t.Helper()
	nodes := make([]*Node, size)
	addrs := make([]string, size)
	for r := 0; r < size; r++ {
		n, err := NewNode(r, size, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
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

// spmd runs fn on every proc concurrently and reports the first error.
func spmd(t *testing.T, procs []*Proc, fn func(p *Proc) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(procs))
	for i, p := range procs {
		wg.Add(1)
		go func(i int, p *Proc) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("rank %d panicked: %v", i, r)
				}
			}()
			errs[i] = fn(p)
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestTCPSendRecv(t *testing.T) {
	procs := mesh(t, 3)
	spmd(t, procs, func(p *Proc) error {
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() - 1 + p.Size()) % p.Size()
		if err := p.Send(next, 7, []complex128{complex(float64(p.Rank()), -1)}); err != nil {
			return err
		}
		got, err := p.RecvC(prev, 7)
		if err != nil {
			return err
		}
		if len(got) != 1 || got[0] != complex(float64(prev), -1) {
			return fmt.Errorf("rank %d got %v", p.Rank(), got)
		}
		return nil
	})
}

func TestTCPAlltoall(t *testing.T) {
	const size, chunk = 4, 3
	procs := mesh(t, size)
	spmd(t, procs, func(p *Proc) error {
		send := make([]complex128, size*chunk)
		for r := 0; r < size; r++ {
			for k := 0; k < chunk; k++ {
				send[r*chunk+k] = complex(float64(p.Rank()), float64(r*chunk+k))
			}
		}
		got, err := p.Alltoall(send, chunk)
		if err != nil {
			return err
		}
		for r := 0; r < size; r++ {
			for k := 0; k < chunk; k++ {
				want := complex(float64(r), float64(p.Rank()*chunk+k))
				if got[r*chunk+k] != want {
					return fmt.Errorf("rank %d slot (%d,%d): %v want %v", p.Rank(), r, k, got[r*chunk+k], want)
				}
			}
		}
		return nil
	})
}

// TestStreamWarmAllocs: on a warm loopback pair the one-chunk exchange
// stream moves its frames through the links' pooled wire buffers into
// the caller's buffer — after the first call nothing payload-sized is
// allocated — and delivers exactly what Alltoall does. TotalAlloc is
// process-wide, and a window can catch a refill of a pool the GC
// emptied, so up to three 5-call windows are measured and the smallest
// per-call figure is held to the bound: an allocation on the per-call
// path shows in every window.
func TestStreamWarmAllocs(t *testing.T) {
	const size, chunk = 2, 1 << 16 // 1 MiB of payload per link
	procs := mesh(t, size)
	var send, recv [size][]complex128
	for r := range send {
		send[r] = signal.Random(size*chunk, int64(r+1))
		recv[r] = make([]complex128, size*chunk)
	}
	exchange := func() {
		spmd(t, procs, func(p *Proc) error {
			return exch.Alltoall(p, recv[p.Rank()], send[p.Rank()], chunk)
		})
	}
	exchange() // the first calls size the pools
	exchange()
	const calls, windows, bound = 5, 3, 16 * chunk / 4
	perCall := uint64(math.MaxUint64)
	for w := 0; w < windows && perCall > bound; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			exchange()
		}
		runtime.ReadMemStats(&after)
		perCall = min(perCall, (after.TotalAlloc-before.TotalAlloc)/calls)
	}
	if perCall > bound {
		t.Errorf("a warm one-chunk stream allocates %d bytes per call in its best of %d windows; one payload is %d", perCall, windows, 16*chunk)
	}
	spmd(t, procs, func(p *Proc) error {
		want, err := p.Alltoall(send[p.Rank()], chunk)
		if err != nil {
			return err
		}
		for i, v := range recv[p.Rank()] {
			if v != want[i] {
				return fmt.Errorf("rank %d element %d: stream %v, Alltoall %v", p.Rank(), i, v, want[i])
			}
		}
		return nil
	})
}

// TestAlltoallvShapeErrorIsTyped: a send buffer that disagrees with the
// chunk returns the same typed *TransportError every sibling returns, not
// a bare string.
func TestAlltoallvShapeErrorIsTyped(t *testing.T) {
	procs := mesh(t, 2)
	_, err := procs[0].Alltoall(make([]complex128, 3), 1)
	var te *TransportError
	if !errors.As(err, &te) || te.Op != "alltoall" {
		t.Errorf("length mismatch surfaced as %v, want a typed alltoall TransportError", err)
	}
}

func TestTCPGatherBarrier(t *testing.T) {
	procs := mesh(t, 4)
	spmd(t, procs, func(p *Proc) error {
		if err := p.Barrier(); err != nil {
			return err
		}
		g, err := p.Gather(2, []complex128{complex(float64(p.Rank()), 0)})
		if err != nil {
			return err
		}
		if p.Rank() == 2 {
			for r := 0; r < 4; r++ {
				if g[r] != complex(float64(r), 0) {
					return fmt.Errorf("gather[%d] = %v", r, g[r])
				}
			}
		} else if g != nil {
			return fmt.Errorf("non-root got data")
		}
		return p.Barrier()
	})
}

// TestTCPDistributedSOI is the point of the package: the full SOI
// algorithm over real sockets, checked against the direct DFT.
func TestTCPDistributedSOI(t *testing.T) {
	const n, ranks = 2048, 4
	pl, err := core.NewPlan(core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: 48})
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 13)
	want := make([]complex128, n)
	fft.Direct(want, src)
	got := make([]complex128, n)
	procs := mesh(t, ranks)
	nLocal := n / ranks
	spmd(t, procs, func(p *Proc) error {
		out := got[p.Rank()*nLocal : (p.Rank()+1)*nLocal]
		_, err := pl.RunDistributed(context.Background(), p, out, src[p.Rank()*nLocal:(p.Rank()+1)*nLocal])
		return err
	})
	if e := signal.RelErrL2(got, want); e > 1e-10 {
		t.Errorf("TCP distributed SOI rel err %.3e", e)
	}
	// And the inverse round trip over the same mesh.
	back := make([]complex128, n)
	spmd(t, procs, func(p *Proc) error {
		out := back[p.Rank()*nLocal : (p.Rank()+1)*nLocal]
		_, err := pl.RunDistributedInverse(context.Background(), p, out, got[p.Rank()*nLocal:(p.Rank()+1)*nLocal])
		return err
	})
	if e := signal.RelErrL2(back, src); e > 1e-10 {
		t.Errorf("TCP round trip rel err %.3e", e)
	}
}

// TestTransportParity: the comparators run unchanged on the wire — the
// six-step and binary-exchange baselines and the in-order convolution
// return the same bits on a TCP mesh as on an in-process world.
func TestTransportParity(t *testing.T) {
	const n = 256
	src, filter := signal.Random(n, 15), signal.Random(n, 16)
	algs := []struct {
		name string
		run  func(c core.Comm, out, in []complex128) error
	}{
		{"sixstep", func(c core.Comm, out, in []complex128) error {
			_, err := baseline.SixStep{Split: baseline.SplitSquare}.Transform(c, out, in, n)
			return err
		}},
		{"sixstep-tall", func(c core.Comm, out, in []complex128) error {
			_, err := baseline.SixStep{Split: baseline.SplitTall}.Transform(c, out, in, n)
			return err
		}},
		{"binexchange", func(c core.Comm, out, in []complex128) error {
			_, err := baseline.BinaryExchange{}.Transform(c, out, in, n)
			return err
		}},
		{"conv.InOrder", func(c core.Comm, out, in []complex128) error {
			lo := c.Rank() * len(in)
			return conv.InOrder(c, out, in, filter[lo:lo+len(in)], n)
		}},
	}
	for _, ranks := range []int{2, 4} {
		procs := mesh(t, ranks)
		nLocal := n / ranks
		block := func(x []complex128, k int) []complex128 { return x[k*nLocal : (k+1)*nLocal] }
		for _, alg := range algs {
			onWorld, onMesh := make([]complex128, n), make([]complex128, n)
			w, err := NewWorld(ranks)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Run(func(c *Proc) error {
				return alg.run(c, block(onWorld, c.Rank()), block(src, c.Rank()))
			}); err != nil {
				t.Fatalf("%s R=%d in process: %v", alg.name, ranks, err)
			}
			spmd(t, procs, func(p *Proc) error {
				return alg.run(p, block(onMesh, p.Rank()), block(src, p.Rank()))
			})
			for i := range onWorld {
				a, b := onWorld[i], onMesh[i]
				if math.Float64bits(real(a)) != math.Float64bits(real(b)) || math.Float64bits(imag(a)) != math.Float64bits(imag(b)) {
					t.Fatalf("%s R=%d: element %d is %v in process, %v on the mesh", alg.name, ranks, i, a, b)
				}
			}
		}
	}
}

func TestTCPDistributedSegment(t *testing.T) {
	const n, ranks = 1024, 4
	pl, err := core.NewPlan(core.Params{N: n, P: 8, Mu: 5, Nu: 4, B: 24})
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(n, 14)
	full := make([]complex128, n)
	if err := pl.Transform(full, src); err != nil {
		t.Fatal(err)
	}
	procs := mesh(t, ranks)
	nLocal := n / ranks
	var seg []complex128
	spmd(t, procs, func(p *Proc) error {
		out, err := pl.RunDistributedSegment(p, src[p.Rank()*nLocal:(p.Rank()+1)*nLocal], 3, 1)
		if p.Rank() == 1 {
			seg = out
		}
		return err
	})
	m := pl.M()
	if e := signal.MaxAbsErr(seg, full[3*m:4*m]); e > 1e-10 {
		t.Errorf("TCP segment differs by %.3e", e)
	}
}

// unusedAddr reserves then releases a port, returning an address with
// no listener behind it.
func unusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestConnectDialTimeoutNamesPeer checks that a dial that never
// succeeds gives up within the configured window and identifies the
// unreachable peer's rank and address in a typed, wrapped error.
func TestConnectDialTimeoutNamesPeer(t *testing.T) {
	n, err := NewNode(1, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.SetConnectTimeout(400 * time.Millisecond)
	dead := unusedAddr(t)
	start := time.Now()
	_, err = n.Connect([]string{dead, n.Addr()})
	if err == nil {
		t.Fatal("Connect to a dead peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Connect hung %v past its 400ms window", elapsed)
	}
	var pe *PeerError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, want *PeerError: %v", err, err)
	}
	if pe.Rank != 0 || pe.Addr != dead {
		t.Errorf("PeerError names rank %d addr %s, want rank 0 addr %s", pe.Rank, pe.Addr, dead)
	}
	if !strings.Contains(err.Error(), dead) || !strings.Contains(err.Error(), "rank 0") {
		t.Errorf("error text %q does not name the peer", err)
	}
}

// TestConnectAcceptTimeout checks that a rank waiting for higher ranks
// that never appear errors out instead of hanging.
func TestConnectAcceptTimeout(t *testing.T) {
	n, err := NewNode(0, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.SetConnectTimeout(300 * time.Millisecond)
	start := time.Now()
	_, err = n.Connect([]string{n.Addr(), unusedAddr(t)})
	if err == nil {
		t.Fatal("Connect with an absent higher rank succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Connect hung %v past its 300ms window", elapsed)
	}
	if !strings.Contains(err.Error(), "waiting for 1 higher rank") {
		t.Errorf("error text %q does not explain the missing peer", err)
	}
}

func TestNodeValidation(t *testing.T) {
	if _, err := NewNode(3, 2, "127.0.0.1:0"); err == nil {
		t.Error("expected rank range error")
	}
	n, err := NewNode(0, 2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect([]string{"only-one"}); err == nil {
		t.Error("expected address count error")
	}
}
