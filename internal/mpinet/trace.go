// Trace propagation and the transport's flight-recorder hook. The
// trace ID crosses the wire as a control frame (reserved tag, like the
// barrier and gather tags), so every rank of a distributed run tags
// its events with the same ID without any side channel; a typed
// transport fault then dumps the attached tracer's ring to disk with
// that ID on the fault marker.

package mpinet

import (
	"errors"
	"math"

	"soifft/internal/trace"
)

// SetTracer attaches (or, with nil, detaches) the event tracer the
// transport dumps on typed faults and tags wire-level instants with.
// Safe to call concurrently with traffic.
func (p *Proc) SetTracer(t *trace.Tracer) { p.tr.Store(t) }

// Tracer returns the attached tracer (nil when absent).
func (p *Proc) Tracer() *trace.Tracer { return p.tr.Load() }

// TraceID returns the trace ID most recently agreed via ShareTraceID
// (zero before any agreement).
func (p *Proc) TraceID() trace.ID { return trace.ID(p.traceID.Load()) }

// ShareTraceID makes rank 0's trace ID the run's: rank 0 broadcasts id
// to every peer as a control frame, other ranks receive it (their id
// argument is ignored), and all ranks return — and remember — the
// agreed value. The uint64 rides in the real part of one complex128
// bit-for-bit (the frame codec moves raw Float64bits, so NaN-pattern
// payloads survive). Transport failures return the usual typed
// *TransportError.
func (p *Proc) ShareTraceID(id trace.ID) (trace.ID, error) {
	if p.size > 1 {
		if p.rank == 0 {
			frame := []complex128{complex(math.Float64frombits(uint64(id)), 0)}
			for r := 1; r < p.size; r++ {
				if err := p.Send(r, tagTraceID, frame); err != nil {
					return 0, err
				}
			}
		} else {
			data, err := p.RecvC(0, tagTraceID)
			if err != nil {
				return 0, err
			}
			if len(data) != 1 {
				return 0, &TransportError{Rank: 0, Op: "trace-id",
					Err: errors.New("malformed trace-id frame")}
			}
			id = trace.ID(math.Float64bits(real(data[0])))
		}
	}
	p.traceID.Store(uint64(id))
	return id, nil
}

// flightFault classifies a wire fault and triggers the attached
// tracer's flight dump (a no-op without a tracer or armed directory).
func (p *Proc) flightFault(cause error) {
	t := p.tr.Load()
	if t == nil {
		return
	}
	reason := "link"
	switch {
	case errors.Is(cause, ErrDeadline):
		reason = "deadline"
	case errors.Is(cause, ErrChecksum):
		reason = "checksum"
	case errors.Is(cause, ErrBadFrame):
		reason = "bad_frame"
	case errors.Is(cause, ErrFrameTooLarge):
		reason = "frame_too_large"
	case errors.Is(cause, ErrPeerClosed):
		reason = "peer_closed"
	}
	t.Fault(p.TraceID(), p.rank, reason) //nolint:errcheck // best-effort dump on the failure path
}
