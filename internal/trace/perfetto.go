// Chrome/Perfetto trace-event export: the ring's events become a JSON
// document loadable in https://ui.perfetto.dev or about://tracing,
// with one process row per rank and one thread row per track name, so
// a distributed transform renders as a per-rank, per-stage timeline.

package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// perfettoEvent is one entry of the trace-event JSON array. Fields
// follow the Chrome trace-event format spec: ph is the phase letter
// (B/E/i/C/M), ts is microseconds, pid/tid place the event on a row.
type perfettoEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// perfettoFile is the top-level JSON object.
type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

// syncName is the instant multi-process merges align on: each rank's
// node emits it at the barrier that opens a traced run, so clocks that
// started at different wall times land on one axis.
const syncName = "trace_sync"

// WritePerfetto dumps the ring as Chrome/Perfetto trace-event JSON.
// Each rank becomes a process row (pid = rank+1, "rank R"), each span
// or instant name becomes a thread row within it, so stages stack into
// a per-rank timeline. Safe to call while tracing continues; nil
// writes an empty trace.
func (t *Tracer) WritePerfetto(w io.Writer) error {
	return writePerfettoEvents(w, t.Snapshot())
}

// trackKey identifies one row: a rank's named track.
type trackKey struct {
	rank int
	name string
}

// writePerfettoEvents renders events (already in publication order)
// as one trace-event JSON document.
func writePerfettoEvents(w io.Writer, events []Event) error {
	out := perfettoFile{TraceEvents: []perfettoEvent{}, DisplayTimeUnit: "ns"}

	// Assign tid numbers per (rank, name) track, in first-seen order,
	// and emit metadata rows naming processes and threads.
	tids := map[trackKey]int{}
	ranks := map[int]bool{}
	for _, ev := range events {
		pid := ev.Rank + 1
		if !ranks[ev.Rank] {
			ranks[ev.Rank] = true
			pname := fmt.Sprintf("rank %d", ev.Rank)
			if ev.Rank < 0 {
				pname = "process"
			}
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: "process_name", Ph: "M", PID: pid,
				Args: map[string]any{"name": pname},
			})
		}
		key := trackKey{ev.Rank, ev.Name}
		tid, ok := tids[key]
		if !ok {
			tid = len(tids) + 1
			tids[key] = tid
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: tid,
				Args: map[string]any{"name": ev.Name},
			})
		}

		pe := perfettoEvent{
			Name: ev.Name,
			TS:   float64(ev.TS) / 1e3,
			PID:  pid,
			TID:  tid,
		}
		switch ev.Kind {
		case KindBegin:
			pe.Ph = "B"
			if ev.Trace != 0 {
				pe.Args = map[string]any{"trace": ev.Trace.String()}
			}
			if ev.Arg != 0 { // ChunkBegin: arg is the chunk index + 1
				if pe.Args == nil {
					pe.Args = map[string]any{}
				}
				pe.Args["chunk"] = ev.Arg - 1
			}
		case KindEnd:
			pe.Ph = "E"
		case KindInstant:
			pe.Ph = "i"
			pe.S = "t"
			if ev.Trace != 0 {
				pe.Args = map[string]any{"trace": ev.Trace.String()}
			}
			if ev.Arg != 0 { // ChunkInstant: arg is the chunk index + 1
				if pe.Args == nil {
					pe.Args = map[string]any{}
				}
				pe.Args["chunk"] = ev.Arg - 1
			}
		default:
			continue
		}
		out.TraceEvents = append(out.TraceEvents, pe)
	}

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("trace: perfetto export: %w", err)
	}
	return bw.Flush()
}

// Merge stitches per-rank trace files (as written by WritePerfetto or
// soinode -trace-out) into one timeline. Each input keeps its own
// pid/tid rows; when an input contains a trace_sync instant, its
// timestamps are re-based so all sync instants coincide — aligning
// rank clocks that started at different wall times. Inputs without a
// sync marker are passed through unshifted.
func Merge(w io.Writer, inputs ...io.Reader) error {
	type parsed struct {
		file perfettoFile
		sync float64 // ts of the first trace_sync instant, or -1
	}
	files := make([]parsed, 0, len(inputs))
	maxSync := -1.0
	for i, r := range inputs {
		var f perfettoFile
		dec := json.NewDecoder(r)
		if err := dec.Decode(&f); err != nil {
			return fmt.Errorf("trace: merge input %d: %w", i, err)
		}
		p := parsed{file: f, sync: -1}
		for _, ev := range f.TraceEvents {
			if ev.Ph == "i" && ev.Name == syncName {
				p.sync = ev.TS
				break
			}
		}
		if p.sync > maxSync {
			maxSync = p.sync
		}
		files = append(files, p)
	}

	out := perfettoFile{TraceEvents: []perfettoEvent{}, DisplayTimeUnit: "ns"}
	// Remap tids so tracks from different files never collide on a
	// shared (pid, tid) row; pids are kept (they encode the rank).
	nextTID := 1
	tidMap := map[[3]int]int{} // {file, pid, tid} -> merged tid
	for fi, p := range files {
		shift := 0.0
		if p.sync >= 0 && maxSync >= 0 {
			shift = maxSync - p.sync
		}
		for _, ev := range p.file.TraceEvents {
			key := [3]int{fi, ev.PID, ev.TID}
			tid, ok := tidMap[key]
			if !ok {
				tid = nextTID
				nextTID++
				tidMap[key] = tid
			}
			ev.TID = tid
			if ev.Ph != "M" {
				ev.TS += shift
			}
			out.TraceEvents = append(out.TraceEvents, ev)
		}
	}
	// Stable ordering: metadata first, then by timestamp, so the merged
	// file is deterministic for tests and diffs.
	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		mi, mj := out.TraceEvents[i].Ph == "M", out.TraceEvents[j].Ph == "M"
		if mi != mj {
			return mi
		}
		if mi {
			return false
		}
		return out.TraceEvents[i].TS < out.TraceEvents[j].TS
	})

	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("trace: merge: %w", err)
	}
	return bw.Flush()
}

// Sync records the clock-alignment instant Merge looks for. Call it at
// a point all processes pass simultaneously (e.g. right after a
// barrier) before the traced work begins.
func (t *Tracer) Sync(id ID, rank int) { t.Instant(id, rank, syncName) }
