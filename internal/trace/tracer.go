// Package trace is the observability timeline layer: event-level
// distributed tracing with a fixed-size lock-free ring buffer that
// doubles as a flight recorder, Chrome/Perfetto trace-event export,
// and an ASCII Gantt renderer (trace.go) for terminals.
//
// Design (DESIGN.md §10): every event is one ring slot of five 64-bit
// words, each read and written atomically — timestamp, trace ID, packed
// metadata (kind, rank, interned name), argument, and a sequence word
// that publishes the slot. Writers claim slots with a single atomic
// add on the ring cursor and never block; readers (Perfetto export,
// flight dumps) validate each slot's sequence word before and after
// copying it, so a dump taken while tracing continues yields a
// consistent prefix and at worst drops slots being overwritten at the
// wrap boundary. Nothing is ever allocated on the emit path once a
// name has been interned.
//
// A nil *Tracer is fully inert: every method is nil-safe, and the
// execution paths guard with one pointer test — the same contract as
// instrument.Recorder, and the basis of the tracing-off overhead
// guard.
package trace

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// ID is a 64-bit trace identifier: every event of one logical request
// — across pipeline stages, goroutines, and ranks — carries the same
// ID, which is what lets a merged timeline group per-rank spans into
// one request. The zero ID means "untraced".
type ID uint64

// String renders the ID the way exports and logs spell it.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// idState drives NewID: a splitmix64 sequence seeded from the clock at
// process start, so IDs are unique within a process and collide across
// processes with negligible probability.
var idState atomic.Uint64

func init() { idState.Store(uint64(time.Now().UnixNano())) }

// NewID returns a fresh non-zero trace ID.
func NewID() ID {
	v := idState.Add(0x9E3779B97F4A7C15)
	v ^= v >> 30
	v *= 0xBF58476D1CE4E5B9
	v ^= v >> 27
	v *= 0x94D049BB133111EB
	v ^= v >> 31
	if v == 0 {
		v = 1
	}
	return ID(v)
}

// Kind classifies one event record.
type Kind uint8

// Event kinds, in the Chrome trace-event vocabulary: spans are a
// Begin/End pair on one (rank, name) track, instants mark a point in
// time.
const (
	KindBegin Kind = iota + 1
	KindEnd
	KindInstant
)

// Event is one decoded record from the ring (the Snapshot form; the
// ring itself stores packed words).
type Event struct {
	TS    int64 // nanoseconds since the tracer's epoch
	Trace ID
	Kind  Kind
	Rank  int // lane/rank the event belongs to (-1 = unknown)
	Name  string
	Arg   int64 // chunk index + 1 on Chunk* events; 0 otherwise
	seq   uint64
}

// slot is one ring entry: five words, each accessed atomically so a
// concurrent dump is race-free. seq is 0 while a write is in progress
// and (index+1) once published.
type slot struct {
	seq   atomic.Uint64
	ts    atomic.Int64
	trace atomic.Uint64
	meta  atomic.Uint64 // kind<<56 | (rank+1)<<40 | nameID
	arg   atomic.Int64
}

// DefaultCapacity is the ring size New rounds to when given n <= 0:
// ~64k events (the flight-recorder depth the serve and transport
// layers retain).
const DefaultCapacity = 1 << 16

// Tracer records events into a fixed-size ring buffer. All methods are
// safe for concurrent use and safe on a nil receiver (no-ops).
type Tracer struct {
	epoch time.Time
	slots []slot
	mask  uint64
	pos   atomic.Uint64

	names struct {
		sync.RWMutex
		byName map[string]uint64
		list   []string
	}

	flight struct {
		sync.Mutex
		dir      string
		lastDump time.Time
		dumps    atomic.Int64
	}
}

// New returns a tracer whose ring holds at least capacity events
// (rounded up to a power of two; capacity <= 0 selects
// DefaultCapacity). The ring is the flight recorder: once full, new
// events overwrite the oldest, so the most recent window of activity
// is always available for export.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	size := 1
	for size < capacity {
		size <<= 1
	}
	t := &Tracer{epoch: time.Now(), slots: make([]slot, size), mask: uint64(size - 1)}
	t.names.byName = make(map[string]uint64)
	return t
}

// Enabled reports whether events are being recorded (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// nameID interns name, so steady-state emits carry a small integer
// instead of a string.
func (t *Tracer) nameID(name string) uint64 {
	t.names.RLock()
	id, ok := t.names.byName[name]
	t.names.RUnlock()
	if ok {
		return id
	}
	t.names.Lock()
	defer t.names.Unlock()
	if id, ok := t.names.byName[name]; ok {
		return id
	}
	id = uint64(len(t.names.list))
	t.names.list = append(t.names.list, name)
	t.names.byName[name] = id
	return id
}

// nameOf resolves an interned ID back to its string.
func (t *Tracer) nameOf(id uint64) string {
	t.names.RLock()
	defer t.names.RUnlock()
	if id < uint64(len(t.names.list)) {
		return t.names.list[id]
	}
	return fmt.Sprintf("name#%d", id)
}

// emit claims the next slot and publishes one event.
func (t *Tracer) emit(kind Kind, id ID, rank int, name string, arg int64) {
	if t == nil {
		return
	}
	ts := time.Since(t.epoch).Nanoseconds()
	nid := t.nameID(name)
	if rank < -1 || rank > 1<<15 {
		rank = -1
	}
	meta := uint64(kind)<<56 | uint64(uint16(rank+1))<<40 | (nid & (1<<40 - 1))
	i := t.pos.Add(1)
	s := &t.slots[(i-1)&t.mask]
	s.seq.Store(0) // invalidate while the words are in flux
	s.ts.Store(ts)
	s.trace.Store(uint64(id))
	s.meta.Store(meta)
	s.arg.Store(arg)
	s.seq.Store(i) // publish
}

// Begin opens a span on the (rank, name) track. Pair with End on the
// same track and trace ID.
func (t *Tracer) Begin(id ID, rank int, name string) { t.emit(KindBegin, id, rank, name, 0) }

// End closes the most recent span opened with Begin on the same track.
func (t *Tracer) End(id ID, rank int, name string) { t.emit(KindEnd, id, rank, name, 0) }

// Instant records a point event (fault markers, dump triggers, sync
// points).
func (t *Tracer) Instant(id ID, rank int, name string) { t.emit(KindInstant, id, rank, name, 0) }

// ChunkBegin opens a span for one streamed-exchange chunk on the
// (rank, name) track, carrying the chunk index as the event argument so
// per-chunk wire activity renders chunk-granular in the Perfetto export.
// Pair with ChunkEnd on the same track.
func (t *Tracer) ChunkBegin(id ID, rank int, name string, idx int) {
	t.emit(KindBegin, id, rank, name, int64(idx)+1)
}

// ChunkEnd closes the span opened by ChunkBegin.
func (t *Tracer) ChunkEnd(id ID, rank int, name string, idx int) {
	t.emit(KindEnd, id, rank, name, int64(idx)+1)
}

// ChunkInstant records a point event for one streamed-exchange chunk
// (e.g. a chunk landing at the consumer), index as the argument.
func (t *Tracer) ChunkInstant(id ID, rank int, name string, idx int) {
	t.emit(KindInstant, id, rank, name, int64(idx)+1)
}

// Len reports how many events have been emitted since creation (not
// how many the ring still holds).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return int(t.pos.Load())
}

// Snapshot copies the ring's published events, oldest first. Slots
// being overwritten during the copy are skipped (their sequence word
// reads 0 or changes between validation reads), so the result is
// always a set of complete events even while tracing continues.
func (t *Tracer) Snapshot() []Event {
	if t == nil {
		return nil
	}
	events := make([]Event, 0, len(t.slots))
	for i := range t.slots {
		s := &t.slots[i]
		seq := s.seq.Load()
		if seq == 0 {
			continue
		}
		ev := Event{
			TS:    s.ts.Load(),
			Trace: ID(s.trace.Load()),
			Arg:   s.arg.Load(),
			seq:   seq,
		}
		meta := s.meta.Load()
		if s.seq.Load() != seq {
			continue // overwritten mid-copy
		}
		ev.Kind = Kind(meta >> 56)
		ev.Rank = int(uint16(meta>>40)) - 1
		ev.Name = t.nameOf(meta & (1<<40 - 1))
		if ev.Kind < KindBegin || ev.Kind > KindInstant {
			continue
		}
		events = append(events, ev)
	}
	// Ring order is publication order; sort by sequence so interleaved
	// shards of the ring come out as one chronological stream.
	sortEvents(events)
	return events
}

// sortEvents orders by sequence number (publication order), which is
// also timestamp order up to scheduler jitter between the clock read
// and the slot claim.
func sortEvents(events []Event) {
	// Insertion sort: snapshots are nearly sorted already (the ring is
	// scanned in index order and wraps at most once).
	for i := 1; i < len(events); i++ {
		for j := i; j > 0 && events[j].seq < events[j-1].seq; j-- {
			events[j], events[j-1] = events[j-1], events[j]
		}
	}
}

// --- flight recorder ---

// flightMinInterval rate-limits fault-triggered dumps: a fault storm
// produces one file per interval, not one per fault.
const flightMinInterval = time.Second

// SetFlightDir arms fault-triggered dumps: Fault writes the ring to a
// timestamped file under dir. An empty dir disarms (Fault still
// records the fault instant).
func (t *Tracer) SetFlightDir(dir string) {
	if t == nil {
		return
	}
	t.flight.Lock()
	t.flight.dir = dir
	t.flight.Unlock()
}

// FlightDumps reports how many fault dumps have been written.
func (t *Tracer) FlightDumps() int64 {
	if t == nil {
		return 0
	}
	return t.flight.dumps.Load()
}

// Fault records a typed-fault instant ("fault:<reason>") and, when a
// flight directory is armed, dumps the ring — the last ring-capacity
// events preceding the fault — to flight-<unixnano>.json in Perfetto
// trace-event format. Dumps are rate-limited to one per second; the
// path of the written file is returned ("" when disarmed, suppressed,
// or nil).
func (t *Tracer) Fault(id ID, rank int, reason string) (string, error) {
	if t == nil {
		return "", nil
	}
	t.Instant(id, rank, "fault:"+reason)
	t.flight.Lock()
	dir := t.flight.dir
	if dir == "" || time.Since(t.flight.lastDump) < flightMinInterval {
		t.flight.Unlock()
		return "", nil
	}
	t.flight.lastDump = time.Now()
	t.flight.Unlock()

	path := filepath.Join(dir, fmt.Sprintf("flight-%d.json", time.Now().UnixNano()))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace: flight dump: %w", err)
	}
	if err := t.WritePerfetto(f); err != nil {
		f.Close()
		return "", fmt.Errorf("trace: flight dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace: flight dump: %w", err)
	}
	t.flight.dumps.Add(1)
	return path, nil
}
