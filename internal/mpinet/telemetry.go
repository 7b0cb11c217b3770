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
	return pe.link.payload(nil, pkt) // cannot fail without a dst
}

// LinkStats snapshots every link's counters, sender-side, its frames
// and bytes summed over the tag bands. A memory-linked Proc reports its
// links to every other rank: a frame is one message there, its bytes are
// the payload's, and flush time, credit stall and RTT stay zero.
func (p *Proc) LinkStats() []telemetry.LinkStat {
	out := make([]telemetry.LinkStat, 0, p.size-1)
	for _, pe := range p.peers {
		if pe != nil && pe.rank != p.rank {
			out = append(out, pe.linkStat())
		}
	}
	return out
}
