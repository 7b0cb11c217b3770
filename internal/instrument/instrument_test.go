package instrument

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.On() || r.Timing() {
		t.Fatal("nil recorder must report off")
	}
	if r.Level() != LevelOff {
		t.Fatalf("nil level = %v, want off", r.Level())
	}
	// Every method must be a no-op, not a panic.
	r.AddTransform()
	r.ObserveStage(StageConvolve, time.Second, time.Second, 4, 100)
	r.CountMessages(1, 16)
	r.CountAlltoallBytes(16)
	r.CountAlltoallOp()
	r.CountRetransmit()
	r.CountDeadline()
	r.CountChecksumError()
	r.Reset()
	s := r.Snapshot()
	if s.Transforms != 0 || s.Comm.Bytes != 0 {
		t.Fatalf("nil snapshot not zero: %+v", s)
	}
	if s.Stages[StageDemod].Stage != StageDemod {
		t.Fatal("nil snapshot must still carry stage identifiers")
	}
}

func TestNewOffIsNil(t *testing.T) {
	if New(LevelOff) != nil {
		t.Fatal("New(LevelOff) must return nil")
	}
	if New(-1) != nil {
		t.Fatal("New(negative) must return nil")
	}
}

func TestRecorderAccumulates(t *testing.T) {
	r := New(LevelTimers)
	if !r.On() || !r.Timing() || r.Level() != LevelTimers {
		t.Fatalf("level wiring broken: %v", r.Level())
	}
	r.AddTransform()
	r.AddTransform()
	r.ObserveStage(StageConvolve, 100*time.Millisecond, 300*time.Millisecond, 4, 1000)
	r.ObserveStage(StageConvolve, 100*time.Millisecond, 100*time.Millisecond, 2, 500)
	r.CountMessages(1, 128)
	r.CountAlltoallOp()
	r.CountAlltoallBytes(4096)

	s := r.Snapshot()
	if s.Transforms != 2 {
		t.Fatalf("transforms = %d, want 2", s.Transforms)
	}
	cv := s.Stages[StageConvolve]
	if cv.Calls != 2 || cv.Wall != 200*time.Millisecond || cv.Busy != 400*time.Millisecond {
		t.Fatalf("convolve counters wrong: %+v", cv)
	}
	if cv.Workers != 4 {
		t.Fatalf("workers should keep the max span, got %d", cv.Workers)
	}
	if cv.Flops != 1500 {
		t.Fatalf("flops = %d, want 1500", cv.Flops)
	}
	// busy 400ms over wall 200ms × 4 workers = 0.5 occupancy.
	if occ := cv.Occupancy(); occ < 0.49 || occ > 0.51 {
		t.Fatalf("occupancy = %f, want 0.5", occ)
	}
	if s.Comm.Messages != 1 || s.Comm.Bytes != 128 ||
		s.Comm.Alltoalls != 1 || s.Comm.AlltoallBytes != 4096 {
		t.Fatalf("comm counters wrong: %+v", s.Comm)
	}

	r.Reset()
	s = r.Snapshot()
	if s.Transforms != 0 || s.Stages[StageConvolve].Calls != 0 || s.Comm.AlltoallBytes != 0 {
		t.Fatalf("reset left residue: %+v", s)
	}
	if s.Level != LevelTimers {
		t.Fatal("reset must keep the level")
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := New(LevelCounters)
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.AddTransform()
				r.CountMessages(1, 16)
				r.ObserveStage(StageExchange, 0, 0, 1, 10)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Transforms != goroutines*per {
		t.Fatalf("transforms = %d, want %d", s.Transforms, goroutines*per)
	}
	if s.Comm.Bytes != goroutines*per*16 {
		t.Fatalf("bytes = %d, want %d", s.Comm.Bytes, goroutines*per*16)
	}
	if s.Stages[StageExchange].Flops != goroutines*per*10 {
		t.Fatalf("flops = %d", s.Stages[StageExchange].Flops)
	}
}

func TestStageStrings(t *testing.T) {
	want := map[Stage]string{
		StageHalo: "halo", StageConvolve: "convolve", StageExchange: "exchange",
		StageSegmentFFT: "segment_fft", StageDemod: "demod",
	}
	for s, name := range want {
		if s.String() != name {
			t.Fatalf("stage %d = %q, want %q", s, s.String(), name)
		}
	}
	if Stage(99).String() != "unknown" {
		t.Fatal("out-of-range stage must render unknown")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := New(LevelTimers)
	r.AddTransform()
	r.ObserveStage(StageConvolve, 250*time.Millisecond, time.Second, 4, 12345)
	r.CountAlltoallOp()
	r.CountAlltoallBytes(61440)

	var b strings.Builder
	WritePrometheus(&b, "soifft", map[string]string{"plan": "n=4096 p=8"}, r.Snapshot())
	out := b.String()

	for _, want := range []string{
		"# TYPE soifft_transforms_total counter",
		`soifft_transforms_total{plan="n=4096 p=8"} 1`,
		`soifft_stage_seconds_total{plan="n=4096 p=8",stage="convolve"} 0.250000000`,
		`soifft_stage_flops_total{plan="n=4096 p=8",stage="convolve"} 12345`,
		`soifft_comm_alltoall_bytes_total{plan="n=4096 p=8"} 61440`,
		`soifft_comm_alltoalls_total{plan="n=4096 p=8"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusNoLabels(t *testing.T) {
	var b strings.Builder
	WritePrometheus(&b, "", nil, (*Recorder)(nil).Snapshot())
	out := b.String()
	if !strings.Contains(out, "soifft_transforms_total 0") {
		t.Fatalf("default prefix / bare series broken:\n%s", out)
	}
	if strings.Contains(out, "{}") {
		t.Fatalf("empty label block rendered:\n%s", out)
	}
}
