package trace

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestNewIDNonZeroAndDistinct(t *testing.T) {
	seen := map[ID]bool{}
	for i := 0; i < 1000; i++ {
		id := NewID()
		if id == 0 {
			t.Fatal("NewID returned zero")
		}
		if seen[id] {
			t.Fatalf("NewID repeated %v after %d draws", id, i)
		}
		seen[id] = true
	}
	if got := ID(0xabc).String(); got != "0000000000000abc" {
		t.Fatalf("ID.String = %q, want zero-padded hex", got)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	tr.Begin(1, 0, "x")
	tr.End(1, 0, "x")
	tr.Instant(1, 0, "x")
	tr.ChunkInstant(1, 0, "x", 7)
	tr.Sync(1, 0)
	tr.SetFlightDir("/nope")
	if path, err := tr.Fault(1, 0, "boom"); path != "" || err != nil {
		t.Fatalf("nil Fault = (%q, %v), want no-op", path, err)
	}
	if tr.Snapshot() != nil || tr.Len() != 0 || tr.FlightDumps() != 0 {
		t.Fatal("nil tracer retained state")
	}
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatalf("nil WritePerfetto: %v", err)
	}
}

func TestRingWrapKeepsNewestEvents(t *testing.T) {
	tr := New(8)
	for i := 0; i < 20; i++ {
		tr.ChunkInstant(1, 0, "tick", i)
	}
	events := tr.Snapshot()
	if len(events) != 8 {
		t.Fatalf("snapshot holds %d events, want ring capacity 8", len(events))
	}
	for i, ev := range events {
		want := int64(13 + i) // the 8 newest of 20, oldest first; arg is index+1
		if ev.Arg != want {
			t.Fatalf("event %d has arg %d, want %d", i, ev.Arg, want)
		}
	}
	if tr.Len() != 20 {
		t.Fatalf("Len = %d, want total emitted 20", tr.Len())
	}
}

func TestSnapshotOrderAndFields(t *testing.T) {
	tr := New(64)
	id := NewID()
	tr.Begin(id, 3, "halo")
	tr.End(id, 3, "halo")
	tr.Instant(id, 3, "mark")
	tr.ChunkInstant(id, 3, "landed", 41)
	ev := tr.Snapshot()
	if len(ev) != 4 {
		t.Fatalf("got %d events, want 4", len(ev))
	}
	kinds := []Kind{KindBegin, KindEnd, KindInstant, KindInstant}
	for i, e := range ev {
		if e.Kind != kinds[i] {
			t.Fatalf("event %d kind %d, want %d", i, e.Kind, kinds[i])
		}
		if e.Trace != id || e.Rank != 3 {
			t.Fatalf("event %d = %+v, want trace %v rank 3", i, e, id)
		}
		if i > 0 && e.TS < ev[i-1].TS {
			t.Fatalf("timestamps not monotonic: %d after %d", e.TS, ev[i-1].TS)
		}
	}
	if ev[3].Name != "landed" || ev[3].Arg != 42 {
		t.Fatalf("chunk event = %+v", ev[3])
	}
}

func TestConcurrentEmitAndSnapshot(t *testing.T) {
	tr := New(256)
	var emitters sync.WaitGroup
	for g := 0; g < 4; g++ {
		emitters.Add(1)
		go func(g int) {
			defer emitters.Done()
			id := NewID()
			for i := 0; i < 5000; i++ {
				tr.Begin(id, g, "work")
				tr.ChunkInstant(id, g, "i", i)
				tr.End(id, g, "work")
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { emitters.Wait(); close(done) }()
	// Snapshot continuously while the emitters hammer the ring; every
	// surfaced event must be fully formed, never torn.
	for {
		for _, ev := range tr.Snapshot() {
			if ev.Kind < KindBegin || ev.Kind > KindInstant {
				t.Fatalf("snapshot surfaced invalid kind %d", ev.Kind)
			}
			if ev.Name != "work" && ev.Name != "i" {
				t.Fatalf("snapshot surfaced torn name %q", ev.Name)
			}
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// perfettoDoc mirrors the export schema for decoding in tests.
type perfettoDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestPerfettoExportDecodesAndNests(t *testing.T) {
	tr := New(1024)
	id := NewID()
	for rank := 0; rank < 2; rank++ {
		tr.Begin(id, rank, "convolve")
		tr.Begin(id, rank, "segment_fft") // nested on its own track
		tr.End(id, rank, "segment_fft")
		tr.End(id, rank, "convolve")
		tr.Instant(id, rank, "mark")
	}
	var buf bytes.Buffer
	if err := tr.WritePerfetto(&buf); err != nil {
		t.Fatalf("WritePerfetto: %v", err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}

	type track struct{ pid, tid int }
	depth := map[track]int{}
	lastTS := map[track]float64{}
	procNames := map[int]bool{}
	var spans, instants int
	for _, ev := range doc.TraceEvents {
		k := track{ev.PID, ev.TID}
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" {
				procNames[ev.PID] = true
			}
			continue
		case "B":
			depth[k]++
			spans++
			if got := ev.Args["trace"]; got != id.String() {
				t.Fatalf("begin event carries trace %v, want %v", got, id.String())
			}
		case "E":
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("track %+v closes a span that never opened", k)
			}
		case "i":
			instants++
		}
		if ev.TS < lastTS[k] {
			t.Fatalf("track %+v timestamps go backwards: %v after %v", k, ev.TS, lastTS[k])
		}
		lastTS[k] = ev.TS
	}
	for k, d := range depth {
		if d != 0 {
			t.Fatalf("track %+v left %d spans open", k, d)
		}
	}
	if spans != 4 || instants != 2 {
		t.Fatalf("exported %d begins and %d instants, want 4 and 2", spans, instants)
	}
	if !procNames[1] || !procNames[2] {
		t.Fatalf("missing process_name metadata for ranks: %v", procNames)
	}
}

func TestMergeRebasesOnSyncInstant(t *testing.T) {
	mk := func(pid int, sync, spanAt float64) string {
		doc := map[string]any{
			"displayTimeUnit": "ns",
			"traceEvents": []map[string]any{
				{"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": map[string]any{"name": "rank"}},
				{"name": syncName, "ph": "i", "ts": sync, "pid": pid, "tid": 1, "s": "t"},
				{"name": "exchange", "ph": "B", "ts": spanAt, "pid": pid, "tid": 1},
				{"name": "exchange", "ph": "E", "ts": spanAt + 10, "pid": pid, "tid": 1},
			},
		}
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	// Rank 0's clock started 200µs before rank 1's: same instants, offset
	// timestamps. After merge both exchange spans must coincide.
	a := mk(1, 100, 150)
	b := mk(2, 300, 350)

	var out bytes.Buffer
	if err := Merge(&out, strings.NewReader(a), strings.NewReader(b)); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("merged output is not valid JSON: %v", err)
	}
	begins := map[int]float64{}
	tids := map[int]map[int]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "B" && ev.Name == "exchange" {
			begins[ev.PID] = ev.TS
		}
		if ev.Ph != "M" {
			if tids[ev.PID] == nil {
				tids[ev.PID] = map[int]bool{}
			}
			tids[ev.PID][ev.TID] = true
		}
	}
	if len(begins) != 2 {
		t.Fatalf("merged file has exchange begins for %d pids, want 2", len(begins))
	}
	if begins[1] != begins[2] {
		t.Fatalf("sync re-base failed: rank clocks at %v vs %v after merge", begins[1], begins[2])
	}
	// Tracks from different files must land on distinct merged tids.
	for pid, set := range tids {
		for tid := range set {
			for otherPid, otherSet := range tids {
				if otherPid != pid && otherSet[tid] {
					t.Fatalf("tid %d shared between pid %d and %d after merge", tid, pid, otherPid)
				}
			}
		}
	}
}

func TestFlightDumpOnFaultAndRateLimit(t *testing.T) {
	dir := t.TempDir()
	tr := New(128)
	tr.SetFlightDir(dir)
	id := NewID()
	tr.Begin(id, 0, "exchange")
	tr.End(id, 0, "exchange")

	path, err := tr.Fault(id, 0, "checksum")
	if err != nil {
		t.Fatalf("Fault: %v", err)
	}
	if path == "" {
		t.Fatal("armed Fault returned no dump path")
	}
	if filepath.Dir(path) != dir {
		t.Fatalf("dump landed in %s, want %s", filepath.Dir(path), dir)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading dump: %v", err)
	}
	var doc perfettoDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("dump is not valid Perfetto JSON: %v", err)
	}
	var sawFault, sawSpan bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" && ev.Name == "fault:checksum" {
			sawFault = true
		}
		if ev.Ph == "B" && ev.Name == "exchange" {
			sawSpan = true
		}
	}
	if !sawFault || !sawSpan {
		t.Fatalf("dump missing events: fault=%v span=%v", sawFault, sawSpan)
	}
	if tr.FlightDumps() != 1 {
		t.Fatalf("FlightDumps = %d, want 1", tr.FlightDumps())
	}

	// A second fault inside the rate-limit window records the instant but
	// writes no file.
	path2, err := tr.Fault(id, 0, "deadline")
	if err != nil {
		t.Fatalf("second Fault: %v", err)
	}
	if path2 != "" {
		t.Fatalf("rate limit failed: second dump at %s", path2)
	}
	if tr.FlightDumps() != 1 {
		t.Fatalf("FlightDumps after suppressed fault = %d, want 1", tr.FlightDumps())
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(files) != 1 {
		t.Fatalf("flight dir holds %d dumps, want 1", len(files))
	}
}
