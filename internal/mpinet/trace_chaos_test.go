// Flight-recorder chaos tests: a typed wire fault must leave a
// Perfetto dump behind, and the trace ID control frame must survive
// the codec bit-exactly.
package mpinet

import (
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"soifft/internal/faultnet"
	"soifft/internal/trace"
)

// TestShareTraceID: rank 0 mints an ID and every rank ends up holding
// the same one after the broadcast.
func TestShareTraceID(t *testing.T) {
	const ranks = 4
	procs := chaosMesh(t, ranks, 0, nil)
	want := trace.NewID()
	got := make([]trace.ID, ranks)
	errs, _ := runRanks(t, procs, 2*time.Second, func(p *Proc) error {
		id := trace.ID(0)
		if p.Rank() == 0 {
			id = want
		}
		var err error
		got[p.Rank()], err = p.ShareTraceID(id)
		return err
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	for r, id := range got {
		if id != want {
			t.Fatalf("rank %d holds trace ID %v, want %v", r, id, want)
		}
		if procs[r].TraceID() != want {
			t.Fatalf("rank %d proc retains %v, want %v", r, procs[r].TraceID(), want)
		}
	}
}

// TestChaosFlightDumpOnChecksumFault is the flight-recorder acceptance
// check: when faultnet flips a bit in flight and the receiver fails
// with a typed checksum error, the receiver's tracer must have dumped
// the ring — fault instant included — to the armed directory.
func TestChaosFlightDumpOnChecksumFault(t *testing.T) {
	const sender = 1
	dir := t.TempDir()
	plan := faultnet.Plan{Seed: 11, CorruptProb: 1}
	procs := chaosMesh(t, 2, 0, func(self, peer int, c net.Conn) net.Conn {
		if self != sender {
			return c
		}
		return plan.Conn(c, faultnet.LinkID(self, peer))
	})
	tr := trace.New(1024)
	tr.SetFlightDir(dir)
	procs[0].SetTracer(tr)

	payload := make([]complex128, 256)
	for i := range payload {
		payload[i] = complex(float64(i), -float64(i))
	}
	errs, _ := runRanks(t, procs, 2*time.Second, func(p *Proc) error {
		if p.Rank() == sender {
			return p.Send(0, 9, payload)
		}
		_, err := p.RecvC(sender, 9)
		return err
	})
	if errs[0] == nil {
		t.Fatal("receiver accepted a corrupted frame")
	}
	if !errors.Is(errs[0], ErrChecksum) {
		t.Fatalf("receiver failed with %v, want ErrChecksum", errs[0])
	}

	if n := tr.FlightDumps(); n != 1 {
		t.Fatalf("flight recorder wrote %d dumps, want 1", n)
	}
	files, err := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("flight dir holds %v (err %v), want one dump", files, err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("dump is not trace JSON: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "i" && ev.Name == "fault:checksum" {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump lacks the fault:checksum instant (%d events)", len(doc.TraceEvents))
	}
}
