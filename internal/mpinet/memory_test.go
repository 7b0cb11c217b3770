package mpinet

import (
	"errors"
	"testing"
	"time"

	"soifft/internal/exch"
)

// TestMailboxRewindsWhenDrained: a mailbox that is emptied between bursts
// must keep reusing one backing array; before the rewind, get advanced a
// window over it forever and put re-grew a fresh array every few packets.
func TestMailboxRewindsWhenDrained(t *testing.T) {
	m := newMailbox()
	m.put(packet{tag: 1})
	if _, err := m.get(0); err != nil {
		t.Fatal(err)
	}
	base := cap(m.queue)
	for i := 0; i < 1000; i++ {
		m.put(packet{tag: 1})
		if _, err := m.get(0); err != nil {
			t.Fatal(err)
		}
	}
	if cap(m.queue) != base || len(m.queue) != 0 || m.head != 0 {
		t.Errorf("after 1000 drained bursts: cap %d (was %d), len %d, head %d", cap(m.queue), base, len(m.queue), m.head)
	}
}

// TestMailboxPassesWakeUpOn: one wake-up token stands for any number of
// queued packets, so a consumer that pops one and leaves others (or the
// link's death) behind must hand the token on, or a second consumer of
// the mailbox (an abandoned stream's receiver and its successor) sleeps
// beside a queued packet.
func TestMailboxPassesWakeUpOn(t *testing.T) {
	m := newMailbox()
	m.put(packet{tag: 1})
	m.put(packet{tag: 2}) // its wake-up finds the token already there
	<-m.notify            // taken by a first consumer
	if p, err := m.get(0); err != nil || p.tag != 1 {
		t.Fatalf("got %v, %v; want packet 1", p, err)
	}
	select {
	case <-m.notify:
	default:
		t.Error("a consumer that left a packet behind did not pass the wake-up on")
	}
	if p, err := m.get(0); err != nil || p.tag != 2 {
		t.Fatalf("got %v, %v; want packet 2", p, err)
	}
	m.kill(ErrAborted)
	<-m.notify // taken by a first consumer, which finds the death
	if _, err := m.get(0); !errors.Is(err, ErrAborted) {
		t.Fatalf("got %v, want ErrAborted", err)
	}
	select {
	case <-m.notify:
	default:
		t.Error("a consumer that found the death did not pass the wake-up on")
	}
}

// TestMemoryLinkDeadlines: a memory-linked rank with an I/O deadline that
// waits on a live peer which never sends gets a *TransportError naming
// the peer and wrapping ErrDeadline within twice the deadline, from
// RecvC, RecvInto and a stream's Next — and the stream's Close, whose
// chunk the peer never takes, returns within twice the deadline too.
func TestMemoryLinkDeadlines(t *testing.T) {
	const d = 100 * time.Millisecond
	var closeStream func() // the stream StreamNext leaves open
	calls := map[string]func(p *Proc) error{
		"RecvC": func(p *Proc) error {
			_, err := p.RecvC(1, 5)
			return err
		},
		"RecvInto": func(p *Proc) error { return p.RecvInto(make([]complex128, 1), 1, 5) },
		"StreamNext": func(p *Proc) error {
			st := p.StartAlltoallv(exch.Options{Sizes: []int{1}, Recv: make([]complex128, 2)})
			closeStream = st.Close
			for dst := range 2 {
				if err := st.Send(dst, 0, []complex128{1}); err != nil {
					return err
				}
			}
			for {
				ch, ok := st.Next()
				if !ok {
					return nil
				}
				if ch.Err != nil {
					return ch.Err
				}
			}
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			w, err := NewWorld(2)
			if err != nil {
				t.Fatal(err)
			}
			var got error
			var elapsed, closing time.Duration
			closeStream = nil
			done := make(chan struct{})
			if err := w.Run(func(p *Proc) error {
				if p.Rank() == 1 { // live, but never sends
					<-done
					return nil
				}
				defer close(done)
				p.SetIOTimeout(d)
				start := time.Now()
				got = call(p)
				elapsed = time.Since(start)
				if closeStream != nil {
					start = time.Now()
					closeStream()
					closing = time.Since(start)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			var te *TransportError
			if !errors.As(got, &te) || te.Rank != 1 || !errors.Is(got, ErrDeadline) || !te.Timeout() {
				t.Errorf("got %v (%T), want a *TransportError naming rank 1 wrapping ErrDeadline", got, got)
			}
			if elapsed > 2*d || closing > 2*d {
				t.Errorf("returned after %v and closed after %v, over twice the %v deadline", elapsed, closing, d)
			}
		})
	}
}
