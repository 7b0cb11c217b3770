package exch

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// fakeWorld is a minimal in-memory checked transport: one FIFO mailbox
// per directed link, with per-link induced failures.
type fakeWorld struct {
	size  int
	mu    sync.Mutex
	cond  *sync.Cond
	boxes map[[2]int][]fakeMsg // {from, to} -> queued messages
	dead  map[[2]int]error     // {from, to} -> induced failure
}

type fakeMsg struct {
	tag  int
	data []complex128
}

func newFakeWorld(size int) *fakeWorld {
	w := &fakeWorld{size: size, boxes: map[[2]int][]fakeMsg{}, dead: map[[2]int]error{}}
	w.cond = sync.NewCond(&w.mu)
	return w
}

func (w *fakeWorld) kill(from, to int, err error) {
	w.mu.Lock()
	w.dead[[2]int{from, to}] = err
	w.mu.Unlock()
	w.cond.Broadcast()
}

type fakeConn struct {
	w    *fakeWorld
	rank int
}

func (c *fakeConn) Rank() int { return c.rank }
func (c *fakeConn) Size() int { return c.w.size }

func (c *fakeConn) Send(to, tag int, buf []complex128) error {
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	key := [2]int{c.rank, to}
	if err := w.dead[key]; err != nil {
		return err
	}
	w.boxes[key] = append(w.boxes[key], fakeMsg{tag: tag, data: append([]complex128(nil), buf...)})
	w.cond.Broadcast()
	return nil
}

func (c *fakeConn) RecvC(from, tag int) ([]complex128, error) {
	w := c.w
	key := [2]int{from, c.rank}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		if q := w.boxes[key]; len(q) > 0 {
			m := q[0]
			w.boxes[key] = q[1:]
			if m.tag != tag {
				return nil, fmt.Errorf("tag mismatch: want %d got %d", tag, m.tag)
			}
			return m.data, nil
		}
		if err := w.dead[key]; err != nil {
			return nil, err
		}
		w.cond.Wait()
	}
}

func (c *fakeConn) RecvInto(dst []complex128, from, tag int) error {
	data, err := c.RecvC(from, tag)
	if err == nil && len(data) != len(dst) {
		err = fmt.Errorf("got %d elements, want %d", len(data), len(dst))
	}
	copy(dst, data)
	return err
}

// withRecv returns o with a fresh Recv for a size-rank world.
func withRecv(o Options, size int) Options {
	total := 0
	for _, n := range o.Sizes {
		total += n
	}
	o.Recv = make([]complex128, size*total)
	return o
}

// payload builds a distinguishable chunk for (src, dst, idx).
func payload(src, dst, idx, n int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		out[i] = complex(float64(src*1000+dst*100+idx*10), float64(i))
	}
	return out
}

// runWorld streams the full schedule on every rank and returns the
// chunks each rank consumed, keyed (src, idx).
func runWorld(t *testing.T, w *fakeWorld, o Options) []map[[2]int][]complex128 {
	t.Helper()
	got := make([]map[[2]int][]complex128, w.size)
	var wg sync.WaitGroup
	for rank := 0; rank < w.size; rank++ {
		rank := rank
		got[rank] = map[[2]int][]complex128{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := Start(&fakeConn{w: w, rank: rank}, withRecv(o, w.size))
			defer s.Close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for {
					c, ok := s.Next()
					if !ok {
						return
					}
					if c.Err != nil {
						t.Errorf("rank %d: src %d failed: %v", rank, c.Src, c.Err)
						return
					}
					got[rank][[2]int{c.Src, c.Index}] = c.Data
				}
			}()
			for idx, n := range o.Sizes {
				for dst := 0; dst < w.size; dst++ {
					if err := s.Send(dst, idx, payload(rank, dst, idx, n)); err != nil {
						t.Errorf("rank %d send to %d: %v", rank, dst, err)
					}
				}
			}
			<-done
		}()
	}
	wg.Wait()
	return got
}

func TestStreamDeliversAllChunks(t *testing.T) {
	const size = 4
	o := Options{Sizes: []int{3, 1, 5}, Window: 2}
	got := runWorld(t, newFakeWorld(size), o)
	for rank := 0; rank < size; rank++ {
		for src := 0; src < size; src++ {
			for idx, n := range o.Sizes {
				want := payload(src, rank, idx, n)
				data, ok := got[rank][[2]int{src, idx}]
				if !ok {
					t.Fatalf("rank %d missing chunk (src=%d idx=%d)", rank, src, idx)
				}
				if len(data) != len(want) {
					t.Fatalf("rank %d chunk (src=%d idx=%d): %d elements, want %d", rank, src, idx, len(data), len(want))
				}
				for i := range want {
					if data[i] != want[i] {
						t.Fatalf("rank %d chunk (src=%d idx=%d)[%d] = %v, want %v", rank, src, idx, i, data[i], want[i])
					}
				}
			}
		}
	}
}

// scaleCodec is a trivially reversible frame codec exercising the
// pluggable-codec seam: wire form is the payload negated.
type scaleCodec struct{}

func (scaleCodec) EncodeChunk(src []complex128) []complex128 {
	out := make([]complex128, len(src))
	for i, v := range src {
		out[i] = -v
	}
	return out
}

func (scaleCodec) DecodeChunk(wire []complex128, n int) ([]complex128, error) {
	if len(wire) != n {
		return nil, fmt.Errorf("codec: %d elements, want %d", len(wire), n)
	}
	out := make([]complex128, len(wire))
	for i, v := range wire {
		out[i] = -v
	}
	return out, nil
}

func TestStreamCodecRoundTrip(t *testing.T) {
	const size = 3
	o := Options{Sizes: []int{2, 2}, Window: 1, Codec: scaleCodec{}}
	got := runWorld(t, newFakeWorld(size), o)
	for rank := 0; rank < size; rank++ {
		for src := 0; src < size; src++ {
			for idx, n := range o.Sizes {
				want := payload(src, rank, idx, n)
				data := got[rank][[2]int{src, idx}]
				for i := range want {
					if data[i] != want[i] {
						t.Fatalf("rank %d chunk (src=%d idx=%d)[%d] = %v, want %v (codec must be invisible)",
							rank, src, idx, i, data[i], want[i])
					}
				}
			}
		}
	}
}

func TestStreamDeadSourceYieldsOneTypedFailure(t *testing.T) {
	w := newFakeWorld(3)
	boom := errors.New("induced link death")
	o := Options{Sizes: []int{2, 2, 2}, Window: 1}

	// Rank 1's link to rank 0 dies after one chunk; ranks 1<->2 and
	// 0->1, 0->2, 2->0 stay healthy. Run only rank 0's consumer; feed it
	// by hand from ranks 1 and 2.
	s := Start(&fakeConn{w: w, rank: 0}, withRecv(o, 3))
	defer s.Close()
	c1 := &fakeConn{w: w, rank: 1}
	c2 := &fakeConn{w: w, rank: 2}
	if err := c1.Send(0, Tag(0), payload(1, 0, 0, 2)); err != nil {
		t.Fatal(err)
	}
	w.kill(1, 0, boom)
	for idx := range o.Sizes {
		if err := c2.Send(0, Tag(idx), payload(2, 0, idx, 2)); err != nil {
			t.Fatal(err)
		}
	}
	for idx := range o.Sizes {
		if err := s.Send(0, idx, payload(0, 0, idx, 2)); err != nil {
			t.Fatal(err)
		}
	}

	var fails, chunks int
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		if c.Err != nil {
			fails++
			if c.Src != 1 || !errors.Is(c.Err, boom) {
				t.Fatalf("unexpected failure event: src=%d err=%v", c.Src, c.Err)
			}
			continue
		}
		chunks++
	}
	if fails != 1 {
		t.Fatalf("got %d failure events, want exactly 1", fails)
	}
	// 3 self + 3 from rank 2 + 1 from rank 1 before its link died.
	if chunks != 7 {
		t.Fatalf("got %d data chunks, want 7", chunks)
	}
}

// TestStreamLandsChunksInRecvSlots: every remote chunk is delivered as
// its Recv slot, in the blocking layout, holding the sent payload; a
// frame the wrong size for its slot ends that source's stream with one
// failure and leaves the other sources alone.
func TestStreamLandsChunksInRecvSlots(t *testing.T) {
	w := newFakeWorld(3)
	o := withRecv(Options{Sizes: []int{2, 3}, Window: 1}, 3)
	s := Start(&fakeConn{w: w, rank: 0}, o)
	defer s.Close()
	c1, c2 := &fakeConn{w: w, rank: 1}, &fakeConn{w: w, rank: 2}
	for idx, n := range o.Sizes {
		if err := c1.Send(0, Tag(idx), payload(1, 0, idx, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c2.Send(0, Tag(0), payload(2, 0, 0, 1)); err != nil { // one element short
		t.Fatal(err)
	}
	for idx, n := range o.Sizes {
		if err := s.Send(0, idx, payload(0, 0, idx, n)); err != nil {
			t.Fatal(err)
		}
	}
	var fails int
	for {
		c, ok := s.Next()
		if !ok {
			break
		}
		if c.Err != nil {
			if fails++; c.Src != 2 {
				t.Errorf("source %d failed: %v", c.Src, c.Err)
			}
			continue
		}
		if c.Src == 1 && &c.Data[0] != &o.Slot(1, c.Index)[0] {
			t.Errorf("chunk %d from 1 was not delivered in its Recv slot", c.Index)
		}
	}
	if fails != 1 {
		t.Fatalf("%d failure events, want one for source 2", fails)
	}
	want := append(payload(1, 0, 0, 2), payload(1, 0, 1, 3)...)
	for i, v := range want {
		if got := o.Recv[5+i]; got != v {
			t.Fatalf("Recv[%d] = %v, want %v (source 1's chunks at offset 5)", 5+i, got, v)
		}
	}
}

// TestOverlap: slices of one array overlap exactly when their element
// ranges intersect; distinct arrays never do.
func TestOverlap(t *testing.T) {
	a := make([]complex128, 10)
	for _, tc := range []struct {
		x, y []complex128
		want bool
	}{
		{a, a, true},
		{a[:5], a[5:], false},
		{a[:6], a[5:], true},
		{a[2:4], a[3:9], true},
		{a[8:], a[:8], false},
		{a[:0], a, false},
		{a, make([]complex128, 10), false},
	} {
		if got := Overlap(tc.x, tc.y); got != tc.want {
			t.Errorf("Overlap(len %d cap %d, len %d cap %d) = %v, want %v",
				len(tc.x), cap(tc.x), len(tc.y), cap(tc.y), got, tc.want)
		}
	}
}

func TestTrackerArithmetic(t *testing.T) {
	trk := NewTracker(2, 3)
	trk.Deliver(Chunk{Src: 0, Index: 0, Data: []complex128{1}})
	trk.Deliver(Chunk{Src: 1, Err: errors.New("dead")})
	trk.Deliver(Chunk{Src: 0, Index: 1, Data: []complex128{2}})
	trk.Deliver(Chunk{Src: 0, Index: 2, Data: []complex128{3}})
	seen := 0
	for {
		_, ok := trk.Next()
		if !ok {
			break
		}
		seen++
	}
	if seen != 4 { // 3 chunks from src 0 + 1 failure from src 1
		t.Fatalf("consumed %d events, want 4", seen)
	}
}

func TestHaloSizes(t *testing.T) {
	cases := []struct {
		total   int
		wantLen int
	}{
		{0, 0},
		{-5, 0},
		{1, 1},                   // tiny halo: one chunk, even below the floor
		{376, 1},                 // the B=48, P=8 test halo: single frame
		{4088, 1},                // a typical production halo: still one frame
		{16384, 1},               // exactly the floor
		{16385, 2},               // just over: two chunks
		{1 << 17, MaxHaloChunks}, // 128 Ki elements: exactly at the cap
		{1 << 20, MaxHaloChunks}, // huge halo capped at the schedule limit
	}
	for _, tc := range cases {
		sizes := HaloSizes(tc.total)
		if len(sizes) != tc.wantLen {
			t.Errorf("HaloSizes(%d) has %d chunks, want %d", tc.total, len(sizes), tc.wantLen)
			continue
		}
		sum := 0
		for i, s := range sizes {
			if s <= 0 {
				t.Errorf("HaloSizes(%d)[%d] = %d, want positive", tc.total, i, s)
			}
			sum += s
		}
		if tc.total > 0 && sum != tc.total {
			t.Errorf("HaloSizes(%d) sums to %d", tc.total, sum)
		}
	}
}

func TestHaloTagBand(t *testing.T) {
	// The halo-stream band must stay positive (ordinary mailboxes) and
	// collision-free across (depth, chunk) pairs.
	seen := map[int]bool{}
	for d := 1; d <= 16; d++ {
		for i := 0; i < MaxHaloChunks; i++ {
			tag := HaloTag(d, i)
			if tag <= HaloTagBase-1 {
				t.Fatalf("HaloTag(%d, %d) = %d below the band", d, i, tag)
			}
			if seen[tag] {
				t.Fatalf("HaloTag(%d, %d) = %d collides", d, i, tag)
			}
			seen[tag] = true
		}
	}
}
