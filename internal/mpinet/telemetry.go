package mpinet

import "soifft/internal/telemetry"

// Telemetry capabilities: with these *Proc is a telemetry.Receiver and
// telemetry.LinkStatser as well as a telemetry.Conn.

// RecvTelemetry blocks for the next stat frame from rank `from`. Stat
// frames ride the dedicated telemetry mailbox (tag telemetry.TagStat),
// so this wait never competes with halo, parity, collective or stream
// receives on the same link. It waits without a deadline — frames are
// sparse and their absence is not a fault — and returns the link's
// typed death cause once the peer is gone, which is the drain
// goroutine's signal to mark the rank stale.
func (p *Proc) RecvTelemetry(from int) ([]complex128, error) {
	pe, err := p.peerOf(from, "recv-telemetry")
	if err != nil {
		return nil, err
	}
	pkt, err := pe.tbox.get(0)
	if err != nil {
		return nil, &TransportError{Rank: from, Op: "recv-telemetry", Err: err}
	}
	return pe.decode(nil, pkt)
}

// LinkStats snapshots every live link's wire counters, sender-side.
func (p *Proc) LinkStats() []telemetry.LinkStat {
	out := make([]telemetry.LinkStat, 0, p.size-1)
	for _, pe := range p.peers {
		if pe == nil {
			continue
		}
		out = append(out, telemetry.LinkStat{
			Peer:           pe.rank,
			FramesSent:     pe.wire.framesSent.Load(),
			BytesSent:      pe.wire.bytesSent.Load(),
			FramesReceived: pe.wire.framesReceived.Load(),
			BytesReceived:  pe.wire.bytesReceived.Load(),
			FlushNs:        pe.wire.flushNs.Load(),
			CreditStallNs:  pe.wire.creditStallNs.Load(),
			HeartbeatRTTNs: pe.wire.rttNs.Load(),
			SendErrors:     pe.wire.sendErrors.Load(),
		})
	}
	return out
}
