package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestSmokeAllWorkloads drives both passes of all six workloads at the
// smoke scale: every output checked, every catalogue metric produced by
// some workload, one trace file each.
func TestSmokeAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	rc := runConfig{seed: 1, seconds: 1, ops: 3, sc: smokeScale, outDir: dir}
	seenLayer := map[string]bool{}
	for _, w := range allWorkloads() {
		t0 := time.Now()
		wd, err := runBothPasses(w, rc)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		t.Logf("%s: %v", w.name, time.Since(t0))
		if wd.Failed != 0 || wd.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, wd.Failed, wd.Attempted, wd.Notes)
		}
		got := map[string]float64{}
		for _, v := range wd.EndToEnd {
			got[v.Name] = float64(v.Value)
		}
		for _, d := range endToEnd {
			// Three ops leave no p90: the picker refuses it.
			if !d.appliesTo(w.name) || d.name == "latency_ms_p90" {
				continue
			}
			v, ok := got[d.name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s missing", w.name, d.name)
			} else if v == 0 && d.name != "failed_share" {
				t.Errorf("%s: end-to-end metric %s is 0", w.name, d.name)
			}
		}
		if r, ok := got["exchange_bytes_over_model"]; ok && (r < 1 || r > 1.01) {
			t.Errorf("%s: exchange_bytes_over_model = %v, want within 1%% above 1", w.name, r)
		}
		for _, v := range wd.PerLayer {
			seenLayer[v.Name] = true
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	for _, d := range perLayer {
		// The tails need a hundred requests (p90) or a thousand (p99);
		// the smoke run sends eighty.
		tail := strings.HasSuffix(d.name, "_ms_p90") || strings.HasSuffix(d.name, "_ms_p99")
		if !seenLayer[d.name] && !tail {
			t.Errorf("per-layer metric %s was produced by no workload", d.name)
		}
	}
}

func TestPercentilePicker(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.9); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90 with ten samples beyond", v, ok)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 of 100 samples accepted with one sample beyond it")
	}
	if _, ok := percentile(xs[:99], 0.9); ok {
		t.Error("p90 of 99 samples accepted with nine samples beyond it")
	}
	if v, ok := percentile(xs[:3], 0.5); !ok || v != 2 {
		t.Errorf("median of three = %v, %v; the median is always reported", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples accepted")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
}

func TestAnalyticBytes(t *testing.T) {
	// N = 2^20 on two ranks at 5/4: the all-to-all moves half of
	// 1.25·N points of 16 bytes; each rank sends a 71·8-point halo; one
	// parity share per codeword doubles a two-rank exchange.
	got := analyticBytes(1<<20, 2, 5, 4, 72, 8, 1)
	want := byteModel{a2a: 10485760, halo: 18176, parity: 10485760}
	if got != want {
		t.Errorf("analyticBytes = %+v, want %+v", got, want)
	}
	if got := analyticBytes(1<<20, 4, 5, 4, 72, 8, 0); got.a2a != 15728640 || got.halo != 36352 || got.parity != 0 {
		t.Errorf("four ranks, uncoded: %+v", got)
	}
	if got := analyticBytes(1<<20, 1, 5, 4, 72, 8, 0); got.total() != 0 {
		t.Errorf("one rank moves nothing between ranks, got %+v", got)
	}
	if bytesOverModel(0, 0) != 1 {
		t.Error("no exchange measured over none modelled must read 1")
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{name: "op", id: 0, parent: -1, start: at(0), end: at(100)},
		{name: "rank0", id: 1, parent: 0, start: at(10), end: at(30)},
		{name: "rank1", id: 2, parent: 0, start: at(20), end: at(50)}, // overlaps rank0
		{name: "late", id: 3, parent: 0, start: at(90), end: at(120)}, // runs past the parent
		{name: "leaf", id: 4, parent: 2, start: at(25), end: at(35)},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the parent: 50 ms.
	want := []time.Duration{at(50), at(20), at(20), at(30), at(10)}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}

func TestSeedDeterminesInputsAndSchedule(t *testing.T) {
	a, err := makeInputs(1<<10, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeInputs(1<<10, 2, 7)
	c, _ := makeInputs(1<<10, 2, 8)
	if !sameBits(a[0].x, b[0].x) || !sameBits(a[1].x, b[1].x) {
		t.Error("the same seed gave different inputs")
	}
	if sameBits(a[0].x, c[0].x) {
		t.Error("different seeds gave the same input")
	}
	if !sameBits(a[1].x, c[0].x) {
		t.Error("input k of seed s must be signal.Random(n, s+k)")
	}
	s1 := poissonSchedule(7, svcRate, time.Second, svcMix, 4)
	s2 := poissonSchedule(7, svcRate, time.Second, svcMix, 4)
	s3 := poissonSchedule(8, svcRate, time.Second, svcMix, 4)
	if len(s1) == 0 || !reflect.DeepEqual(s1, s2) {
		t.Error("the same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("different seeds gave the same arrival schedule")
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].due < s1[i-1].due {
			t.Fatal("arrivals out of order")
		}
	}
}

func TestJudge(t *testing.T) {
	wall := metricDef{name: "wall_ms_p50", bound: 0.10}
	snr := metricDef{name: "snr_db", higher: true, bound: 0.5, abs: true}
	cases := []struct {
		d                  metricDef
		base, cand, spread float64
		want               verdict
	}{
		{wall, 100, 105, 0, verdictWithin},
		{wall, 100, 111, 0, verdictWorse},
		{wall, 100, 89, 0, verdictBetter},
		{wall, 100, 130, 12, verdictUnresolved}, // runs 12% apart cannot resolve a 10% bound
		{snr, 278.6, 278.2, 0, verdictWithin},
		{snr, 278.6, 278.0, 0, verdictWorse}, // 0.6 dB lower, absolute bound 0.5
		{snr, 278.6, 279.2, 0, verdictBetter},
	}
	for _, c := range cases {
		if got := judge(c.d, c.base, c.cand, c.spread).verdict; got != c.want {
			t.Errorf("%s %v -> %v (spread %v): %s, want %s", c.d.name, c.base, c.cand, c.spread, got, c.want)
		}
	}
}

func TestResultDocumentIsStable(t *testing.T) {
	doc := document{Schema: schema, Sets: []setDoc{{Seed: 1, Workloads: []workloadDoc{{
		Name: wNodeShm, Attempted: 3,
		EndToEnd: []value{{Name: "wall_ms_p50", Value: 1.5, Unit: "ms", N: 3}},
	}}}}}
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := writeDocument(path, doc); err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if want := `"value": 1.500000`; !strings.Contains(string(raw), want) {
		t.Errorf("document lacks fixed-decimal %s:\n%s", want, raw)
	}
	back, err := readDocument(path)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Sets[0].lookup(wNodeShm, "wall_ms_p50"); !ok || v != 1.5 {
		t.Errorf("round trip lost the metric: %v, %v", v, ok)
	}
}

func better(d metricDef) string {
	if d.higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json, which the
// driver reads, and the catalogue, which the program prints, from
// drifting apart.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bm struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	ws := allWorkloads()
	if len(bm.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bm.Workloads), len(ws))
	}
	for i, w := range ws {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %s / %s", i, bm.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != better(d) {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, catalogue %s %s %s", kind, i, g, d.name, d.unit, better(d))
			}
			// An absolute bound (0.5 dB of ~280) is listed there as a share.
			if bounded && !d.abs && g.Bound != d.bound {
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in the catalogue", d.name, g.Bound, d.bound)
			}
		}
	}
	check("end-to-end", bm.EndToEnd, driverEndToEnd(), true)
	check("per-layer", bm.PerLayer, perLayer, false)
}
