// Package telemetry is the cluster observability plane: every rank of a
// distributed transform periodically (and at end-of-transform) packs a
// compact stat frame — per-stage times from its instrument.Recorder,
// per-peer wire stats from the transport, overlap and coded-exchange
// counters — and ships it to rank 0 over a dedicated control tag
// piggybacked on the existing transport. Rank 0 aggregates the frames
// into a ClusterSnapshot (per-rank × per-stage matrix, per-link wire
// table, fleet percentiles) and runs the explainer, which compares the
// measured stage and wire times against internal/perfmodel's
// expectations for the actual (N, R, β, B) and emits ranked findings
// ("rank 3 exchange 2.1× fleet median — 78% of the excess is
// credit-stall on link 3→1").
//
// The plane follows the same off-switch discipline as instrument and
// trace: a nil *Plane is fully inert (every method nil-safe), and the
// execution paths guard with a single pointer test.
package telemetry

import (
	"encoding/binary"
	"fmt"
	"math"

	"soifft/internal/exch"
	"soifft/internal/instrument"
)

// TagStat is the dedicated control tag stat frames travel on, the one
// tag of the telemetry band (see exch.BandOf): both transports route it
// to a mailbox of its own, since stat frames arrive asynchronously,
// mid-transform, and must never head the FIFO an ordinary receive (halo,
// parity, collective) is about to pop.
const TagStat = exch.TagStat

// frame wire format constants.
const (
	frameMagic   = 0x54494F53 // "SOIT" little-endian
	frameVersion = 1

	// maxLinks bounds the per-frame link table a header may claim,
	// limiting what a corrupted frame can make Unpack allocate.
	maxLinks = 1 << 16
	// maxStages bounds the per-frame stage table likewise.
	maxStages = 64
	// maxWorld bounds the rank space a frame may claim.
	maxWorld = 1 << 20
)

// LinkStat is one directed link's wire counters, measured at the sender
// side of the link (rank → peer).
type LinkStat struct {
	Peer int `json:"peer"`
	// FramesSent/BytesSent count data frames this rank flushed to peer.
	FramesSent int64 `json:"frames_sent"`
	BytesSent  int64 `json:"bytes_sent"`
	// FramesReceived/BytesReceived count validated data frames read.
	FramesReceived int64 `json:"frames_received"`
	BytesReceived  int64 `json:"bytes_received"`
	// FlushNs is wall time the writer spent pushing data frames into the
	// socket — the link's effective service time.
	FlushNs int64 `json:"flush_ns"`
	// CreditStallNs is time streamed sends to this peer spent blocked on
	// a full credit window (producer outrunning this link).
	CreditStallNs int64 `json:"credit_stall_ns"`
	// HeartbeatRTTNs is the latest heartbeat echo round-trip sample
	// (0 = no sample; heartbeats flow only while an I/O deadline is set).
	HeartbeatRTTNs int64 `json:"heartbeat_rtt_ns"`
	// SendErrors counts failed sends to this peer (link declared dead).
	SendErrors int64 `json:"send_errors"`
}

// BandwidthBps is the link's effective flush bandwidth in bytes/second
// (0 without traffic or timing).
func (l LinkStat) BandwidthBps() float64 {
	if l.FlushNs <= 0 || l.BytesSent <= 0 {
		return 0
	}
	return float64(l.BytesSent) * 1e9 / float64(l.FlushNs)
}

// CommStats is the flat, serializable copy of the communication counters
// a frame carries (instrument.CommSnapshot reduced to int64 fields).
type CommStats struct {
	Messages        int64 `json:"messages"`
	Bytes           int64 `json:"bytes"`
	Alltoalls       int64 `json:"alltoalls"`
	AlltoallBytes   int64 `json:"alltoall_bytes"`
	Retransmits     int64 `json:"retransmits"`
	DeadlineEvents  int64 `json:"deadline_events"`
	ChecksumErrors  int64 `json:"checksum_errors"`
	ParityBytes     int64 `json:"parity_bytes"`
	RecoveryBytes   int64 `json:"recovery_bytes"`
	Reconstructions int64 `json:"reconstructions"`
	Degraded        int64 `json:"degraded"`
	StreamChunks    int64 `json:"stream_chunks"`
	HiddenNs        int64 `json:"hidden_exchange_ns"`
	CreditStallNs   int64 `json:"credit_stall_ns"`
}

// commFromSnapshot flattens an instrument comm snapshot.
func commFromSnapshot(c instrument.CommSnapshot) CommStats {
	return CommStats{
		Messages:        c.Messages,
		Bytes:           c.Bytes,
		Alltoalls:       c.Alltoalls,
		AlltoallBytes:   c.AlltoallBytes,
		Retransmits:     c.Retransmits,
		DeadlineEvents:  c.DeadlineEvents,
		ChecksumErrors:  c.ChecksumErrors,
		ParityBytes:     c.ParityBytes,
		RecoveryBytes:   c.RecoveryBytes,
		Reconstructions: c.Reconstructions,
		Degraded:        c.DegradedTransforms,
		StreamChunks:    c.StreamChunks,
		HiddenNs:        int64(c.HiddenExchange),
		CreditStallNs:   int64(c.CreditStall),
	}
}

// add sums two comm stat sets field-wise.
func (a CommStats) add(b CommStats) CommStats {
	return CommStats{
		Messages:        a.Messages + b.Messages,
		Bytes:           a.Bytes + b.Bytes,
		Alltoalls:       a.Alltoalls + b.Alltoalls,
		AlltoallBytes:   a.AlltoallBytes + b.AlltoallBytes,
		Retransmits:     a.Retransmits + b.Retransmits,
		DeadlineEvents:  a.DeadlineEvents + b.DeadlineEvents,
		ChecksumErrors:  a.ChecksumErrors + b.ChecksumErrors,
		ParityBytes:     a.ParityBytes + b.ParityBytes,
		RecoveryBytes:   a.RecoveryBytes + b.RecoveryBytes,
		Reconstructions: a.Reconstructions + b.Reconstructions,
		Degraded:        a.Degraded + b.Degraded,
		StreamChunks:    a.StreamChunks + b.StreamChunks,
		HiddenNs:        a.HiddenNs + b.HiddenNs,
		CreditStallNs:   a.CreditStallNs + b.CreditStallNs,
	}
}

// Shape identifies the transform a snapshot describes — the (N, R, β, B)
// the explainer feeds to perfmodel.
type Shape struct {
	N        int     `json:"n"`
	Segments int     `json:"segments"`
	Taps     int     `json:"taps"`
	Beta     float64 `json:"beta"`
	// Parity is the coded exchange's m (-1 = plain exchange).
	Parity int `json:"parity"`
	// Window is the streamed exchange's in-flight window (0 = blocking).
	Window int `json:"window"`
}

// StatFrame is one rank's telemetry report: a monotone sequence of
// cumulative counters. Later frames supersede earlier ones (the
// aggregator keeps the highest Seq per rank), so frames may be lost or
// reordered without corrupting the aggregate.
type StatFrame struct {
	Rank  int    `json:"rank"`
	World int    `json:"world"`
	Seq   uint64 `json:"seq"`
	// Final marks the rank's last frame (sent from Plane.Final); the
	// root's per-peer drain stops cleanly on it.
	Final bool  `json:"final,omitempty"`
	Shape Shape `json:"shape"`

	Transforms int64                       `json:"transforms"`
	StageNs    [instrument.NumStages]int64 `json:"stage_ns"`
	StageCalls [instrument.NumStages]int64 `json:"stage_calls"`
	Comm       CommStats                   `json:"comm"`
	Links      []LinkStat                  `json:"links,omitempty"`
}

// Accumulate folds a recorder snapshot's counters into the frame — the
// shared builder behind the plane's per-rank frames and the serving
// tier's single-replica view (which sums over every resident
// instrumented plan).
func (f *StatFrame) Accumulate(snap instrument.Snapshot) {
	f.Transforms += snap.Transforms
	for i := 0; i < int(instrument.NumStages); i++ {
		f.StageNs[i] += int64(snap.Stages[i].Wall)
		f.StageCalls[i] += snap.Stages[i].Calls
	}
	f.Comm = f.Comm.add(commFromSnapshot(snap.Comm))
}

// OverlapRatio is the rank's measured exchange-hiding fraction.
func (f *StatFrame) OverlapRatio() float64 {
	total := f.Comm.HiddenNs + f.StageNs[instrument.StageExchange]
	if total <= 0 {
		return 0
	}
	return float64(f.Comm.HiddenNs) / float64(total)
}

// --- wire codec ---

// PackBytes serializes the frame (little-endian, versioned, magic-tagged).
func (f *StatFrame) PackBytes() []byte {
	n := 4 + 2 + 2 + 4 + // magic, version, reserved, byteLen
		4 + 4 + 8 + 4 + // rank, world, seq, flags
		8 + 4 + 4 + 8 + 8 + 8 + // n, segments, taps, parity, window, beta
		8 + 4 + // transforms, stage count
		int(instrument.NumStages)*16 + // stage ns + calls
		14*8 + // comm
		4 + len(f.Links)*(4+8*8) // link count + links
	b := make([]byte, 0, n)
	u32 := func(v uint32) { b = binary.LittleEndian.AppendUint32(b, v) }
	u64 := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	i64 := func(v int64) { u64(uint64(v)) }

	u32(frameMagic)
	u32(uint32(frameVersion)) // version u16 + reserved u16, packed
	u32(uint32(n))            // byteLen (capacity == exact length below)
	u32(uint32(f.Rank))
	u32(uint32(f.World))
	u64(f.Seq)
	var flags uint32
	if f.Final {
		flags |= 1
	}
	u32(flags)
	u64(uint64(f.Shape.N))
	u32(uint32(f.Shape.Segments))
	u32(uint32(f.Shape.Taps))
	i64(int64(f.Shape.Parity))
	i64(int64(f.Shape.Window))
	u64(math.Float64bits(f.Shape.Beta))
	i64(f.Transforms)
	u32(uint32(instrument.NumStages))
	for s := 0; s < int(instrument.NumStages); s++ {
		i64(f.StageNs[s])
		i64(f.StageCalls[s])
	}
	c := f.Comm
	for _, v := range []int64{c.Messages, c.Bytes, c.Alltoalls, c.AlltoallBytes,
		c.Retransmits, c.DeadlineEvents, c.ChecksumErrors, c.ParityBytes,
		c.RecoveryBytes, c.Reconstructions, c.Degraded, c.StreamChunks,
		c.HiddenNs, c.CreditStallNs} {
		i64(v)
	}
	u32(uint32(len(f.Links)))
	for _, l := range f.Links {
		u32(uint32(l.Peer))
		i64(l.FramesSent)
		i64(l.BytesSent)
		i64(l.FramesReceived)
		i64(l.BytesReceived)
		i64(l.FlushNs)
		i64(l.CreditStallNs)
		i64(l.HeartbeatRTTNs)
		i64(l.SendErrors)
	}
	if len(b) != n {
		panic(fmt.Sprintf("telemetry: frame size bookkeeping off: %d != %d", len(b), n))
	}
	return b
}

// Pack serializes the frame into the []complex128 payload shape both
// transports move natively: the byte image packed 16 bytes per element
// (zero-padded), bit-exact through the transports' Float64bits framing.
func (f *StatFrame) Pack() []complex128 {
	b := f.PackBytes()
	out := make([]complex128, (len(b)+15)/16)
	var word [16]byte
	for i := range out {
		chunk := b[i*16:]
		if len(chunk) >= 16 {
			copy(word[:], chunk[:16])
		} else {
			word = [16]byte{}
			copy(word[:], chunk)
		}
		re := math.Float64frombits(binary.LittleEndian.Uint64(word[:8]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(word[8:]))
		out[i] = complex(re, im)
	}
	return out
}

// reader is a bounds-checked little-endian cursor.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = fmt.Errorf("telemetry: frame truncated at offset %d (need %d of %d)", r.off, n, len(r.b))
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

func (r *reader) u32() uint32 {
	if s := r.take(4); s != nil {
		return binary.LittleEndian.Uint32(s)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if s := r.take(8); s != nil {
		return binary.LittleEndian.Uint64(s)
	}
	return 0
}

func (r *reader) i64() int64 { return int64(r.u64()) }

// UnpackBytes parses a frame, validating magic, version and every
// length field before allocating; it never panics on corrupt input.
func UnpackBytes(b []byte) (*StatFrame, error) {
	r := &reader{b: b}
	if m := r.u32(); r.err == nil && m != frameMagic {
		return nil, fmt.Errorf("telemetry: bad frame magic %#x (want %#x)", m, frameMagic)
	}
	if v := r.u32(); r.err == nil && v&0xFFFF != frameVersion {
		return nil, fmt.Errorf("telemetry: unsupported frame version %d", v&0xFFFF)
	}
	byteLen := int(r.u32())
	if r.err == nil && (byteLen < 0 || byteLen > len(b)) {
		return nil, fmt.Errorf("telemetry: frame claims %d bytes, have %d", byteLen, len(b))
	}
	f := &StatFrame{}
	f.Rank = int(int32(r.u32()))
	f.World = int(int32(r.u32()))
	f.Seq = r.u64()
	flags := r.u32()
	f.Final = flags&1 != 0
	f.Shape.N = int(r.u64())
	f.Shape.Segments = int(int32(r.u32()))
	f.Shape.Taps = int(int32(r.u32()))
	f.Shape.Parity = int(r.i64())
	f.Shape.Window = int(r.i64())
	f.Shape.Beta = math.Float64frombits(r.u64())
	f.Transforms = r.i64()
	stages := int(r.u32())
	if r.err == nil && (stages < 0 || stages > maxStages) {
		return nil, fmt.Errorf("telemetry: frame claims %d stages (limit %d)", stages, maxStages)
	}
	for s := 0; s < stages && r.err == nil; s++ {
		ns, calls := r.i64(), r.i64()
		if s < int(instrument.NumStages) {
			f.StageNs[s] = ns
			f.StageCalls[s] = calls
		}
	}
	for _, p := range []*int64{&f.Comm.Messages, &f.Comm.Bytes, &f.Comm.Alltoalls,
		&f.Comm.AlltoallBytes, &f.Comm.Retransmits, &f.Comm.DeadlineEvents,
		&f.Comm.ChecksumErrors, &f.Comm.ParityBytes, &f.Comm.RecoveryBytes,
		&f.Comm.Reconstructions, &f.Comm.Degraded, &f.Comm.StreamChunks,
		&f.Comm.HiddenNs, &f.Comm.CreditStallNs} {
		*p = r.i64()
	}
	links := int(r.u32())
	if r.err == nil && (links < 0 || links > maxLinks) {
		return nil, fmt.Errorf("telemetry: frame claims %d links (limit %d)", links, maxLinks)
	}
	if r.err == nil && links > 0 {
		f.Links = make([]LinkStat, 0, links)
		for i := 0; i < links && r.err == nil; i++ {
			var l LinkStat
			l.Peer = int(int32(r.u32()))
			l.FramesSent = r.i64()
			l.BytesSent = r.i64()
			l.FramesReceived = r.i64()
			l.BytesReceived = r.i64()
			l.FlushNs = r.i64()
			l.CreditStallNs = r.i64()
			l.HeartbeatRTTNs = r.i64()
			l.SendErrors = r.i64()
			f.Links = append(f.Links, l)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if f.World <= 0 || f.World > maxWorld || f.Rank < 0 || f.Rank >= f.World {
		return nil, fmt.Errorf("telemetry: frame rank %d out of range for world %d", f.Rank, f.World)
	}
	return f, nil
}

// Unpack parses a frame from its []complex128 wire payload.
func Unpack(data []complex128) (*StatFrame, error) {
	b := make([]byte, len(data)*16)
	for i, v := range data {
		binary.LittleEndian.PutUint64(b[i*16:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[i*16+8:], math.Float64bits(imag(v)))
	}
	return UnpackBytes(b)
}
