package mpi

// RecvTelemetry blocks for the next telemetry stat frame from rank
// `from` (the telemetry.Receiver capability). Stat frames ride their own
// per-pair mailbox, so this wait never competes with the rank's ordinary
// or streamed receives, and it is the one Comm receive safe to call from
// a goroutine other than the rank's own (the plane's drain): the
// telemetry mailbox has exactly one consumer. A world abort
// surfaces as the typed error the drain turns into a stale mark.
//
// The in-process runtime has no wire, so there is no LinkStats here —
// the plane simply finds the capability absent.
func (c *Comm) RecvTelemetry(from int) ([]complex128, error) {
	if err := c.checkRank("recv_telemetry", from); err != nil {
		return nil, err
	}
	p, ok := c.world.tboxes[from*c.world.size+c.rank].get() // stat frames only
	if !ok {
		return nil, &AbortError{Rank: c.rank}
	}
	return p.data, nil
}
