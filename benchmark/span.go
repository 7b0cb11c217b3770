package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// surface. Spans of one operation share op; parent is the id of the span
// that caused this one (-1 for an operation's root).
type span struct {
	name       string
	id, parent int
	op         int
	lane       int // Chrome trace tid: 0 = driver goroutine, r+1 = rank r
	start, end time.Duration
}

func (s span) dur() time.Duration { return s.end - s.start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: begin and end do nothing, so the same workload code
// serves both passes.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 when untraced).
func (t *tracer) begin(name string, op, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, op: op, lane: lane, start: now, end: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap one
// another (ranks run side by side), so the covered part is the union of
// their intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := kids[s.id]
		sort.Slice(cs, func(a, b int) bool { return cs[a].start < cs[b].start })
		var covered time.Duration
		cursor := s.start
		for _, c := range cs {
			lo, hi := max(c.start, cursor), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		out[i] = s.dur() - covered
	}
	return out
}

// selfByName renders total self time per span name, in ms, names in
// order: where a pass spent its time, with nothing counted twice.
func (t *tracer) selfByName() string {
	self := selfTimes(t.spans)
	sum := make(map[string]float64)
	for i, s := range t.spans {
		sum[s.name] += ms(self[i])
	}
	names := make([]string, 0, len(sum))
	for name := range sum {
		names = append(names, name)
	}
	sort.Strings(names)
	out := "self time by span, ms:"
	for _, name := range names {
		out += fmt.Sprintf(" %s %.1f;", name, sum[name])
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON.
func (t *tracer) writeChrome(path string) error {
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Pid: 1, Tid: s.lane,
			Args: map[string]int{"id": s.id, "op": s.op, "parent": s.parent},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{events}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
