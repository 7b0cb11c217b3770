package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"soifft/internal/core"
	"soifft/internal/fft"
	"soifft/internal/signal"
)

// scale sizes a run. The smoke scale keeps the tier-1 test under ten
// seconds; the full scale is what every reported number comes from.
type scale struct {
	nNode, nInproc, nWire int
	nOversub              int   // size of the ranks > cores explanation (BENCH_soi.json's middle size)
	warmups               int   // ops before the first timed one
	setups                int   // times a workload is set up; setup_s is their median
	minOps                int   // timed-op floor when a pass runs by seconds
	tracedOps             int   // traced ops (and as many untraced beside them)
	probeReps             int   // repetitions of each direct layer call
	inputs                int   // distinct inputs a transform workload cycles through
	svcInputs             int   // distinct inputs per request size
	oversubOps            int   // ops of the ranks > cores explanation
	streamCap             int64 // largest copy array of the bandwidth calibration
}

var (
	fullScale = scale{
		nNode: 1 << 20, nInproc: 1 << 20, nWire: 1 << 19, nOversub: 1 << 16,
		// 100 timed ops leave ten samples beyond p90.
		warmups: 5, setups: 5, minOps: 100, tracedOps: 20, probeReps: 9,
		inputs: 3, svcInputs: 16, oversubOps: 10, streamCap: maxStreamArray,
	}
	smokeScale = scale{
		nNode: 1 << 14, nInproc: 1 << 14, nWire: 1 << 14, nOversub: 1 << 13,
		warmups: 1, setups: 1, minOps: 3, tracedOps: 3, probeReps: 1,
		inputs: 2, svcInputs: 4, oversubOps: 2, streamCap: 4 << 20,
	}
)

// runConfig is what one pass of one workload needs to know.
type runConfig struct {
	seed    int64
	seconds float64 // timed window of the untraced pass
	ops     int     // > 0: exactly this many timed ops on transform workloads
	sc      scale
	outDir  string // where the traced pass writes trace-<workload>.json ("" = nowhere)
}

// passResult is what one pass of one workload measured.
type passResult struct {
	vals              values
	attempted, failed int
	notes             []string // report lines: reconciliation, models, labels
}

// maxRelErr is the correctness limit on every transform: relative L2
// error against the float64 FFT of the same input.
const maxRelErr = 1e-9

// input is one seeded signal with its reference spectrum.
type input struct {
	x, ref []complex128
}

// makeInputs returns signal.Random(n, seed+k) for k in [0, count) with
// fft.Forward of each as the reference. The program under test sees only
// x.
func makeInputs(n, count int, seed int64) ([]input, error) {
	ins := make([]input, count)
	for k := range ins {
		x := signal.Random(n, seed+int64(k))
		ref, err := fft.Forward(x)
		if err != nil {
			return nil, fmt.Errorf("reference FFT of input %d: %w", k, err)
		}
		ins[k] = input{x: x, ref: ref}
	}
	return ins, nil
}

// sameBits reports whether a and b hold identical float64 bit patterns.
func sameBits(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// opResult is one transform as its workload ran it.
type opResult struct {
	wall   time.Duration // critical path: all ranks released → last rank back
	ranks  []core.DistributedTimes
	phases core.PhaseTimes // node_shm only
	bytes  int64           // measured inter-rank bytes of this transform
	a2as   int64           // all-to-all collectives (in-process worlds)
	a2aB   int64           // bytes they carried
	frames int64           // wire frames (mesh workloads)
}

// transformer is one of the five transform workloads: something that can
// be set up, run one transform at a time, and torn down.
type transformer interface {
	name() string
	size() int
	setup() error
	// run executes one transform of x into out. A nil tracer is the
	// untraced pass; with a tracer the calls into the layers are wrapped
	// in spans and the run is observed by a recorder.
	run(tr *tracer, op int, out, x []complex128) (opResult, error)
	close()
	// model is the analytic inter-rank byte count of one transform.
	model() byteModel
	// bitReference reports whether outputs must equal the blocking
	// distributed output bit for bit.
	bitReference() bool
	// layers runs the workload's direct layer calls in the traced pass.
	layers(lc *layerCtx) error
}

// byteModel itemises the bytes one distributed transform must move
// between ranks.
type byteModel struct {
	a2a    int64 // 16(1+β)N(R−1)/R: the single all-to-all
	halo   int64 // 16(B−1)P·R: neighbour prefixes
	parity int64 // coded: m parity shares per codeword, R·m·chunk·16
}

func (m byteModel) total() int64 { return m.a2a + m.halo + m.parity }

// analyticBytes is the byte model of one SOI transform of n points on r
// ranks with oversampling mu/nu, b taps, p segments and m parity shares.
func analyticBytes(n, r, mu, nu, b, p, m int) byteModel {
	if r <= 1 {
		return byteModel{}
	}
	nPrime := int64(n) * int64(mu) / int64(nu)
	chunk := nPrime / int64(r*r)
	return byteModel{
		a2a:    16 * nPrime * int64(r-1) / int64(r),
		halo:   16 * int64(b-1) * int64(p) * int64(r),
		parity: int64(r) * int64(m) * chunk * 16,
	}
}

// bytesOverModel is measured ÷ modelled inter-rank bytes. A workload
// with no exchange at all (nothing measured, nothing modelled) is at its
// model exactly.
func bytesOverModel(measured, model int64) float64 {
	if model == 0 {
		if measured == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return float64(measured) / float64(model)
}

// checked runs one op the way a caller that allocates its result per
// call would, and verifies the output: rel-L2 against the reference, and
// bit identity with bitRef when the workload demands it. It returns the
// op and its SNR in dB.
func checked(w transformer, tr *tracer, op int, in input, bitRef []complex128) (opResult, float64, error) {
	out := make([]complex128, w.size())
	// Fault the result buffer in before the clock starts: fresh pages
	// cost this VM ~12 µs each, 50 ms for 16 MB, and that is the
	// allocator's wall, not the transform's.
	for i := 0; i < len(out); i += 256 {
		out[i] = 0
	}
	res, err := w.run(tr, op, out, in.x)
	if err != nil {
		return res, 0, err
	}
	rel := signal.RelErrL2(out, in.ref)
	if !(rel <= maxRelErr) {
		return res, 0, fmt.Errorf("op %d: rel-L2 error %.3e exceeds %.0e", op, rel, maxRelErr)
	}
	if bitRef != nil && !sameBits(out, bitRef) {
		return res, 0, fmt.Errorf("op %d: output differs in bits from the blocking exchange", op)
	}
	return res, -20 * math.Log10(rel), nil
}

// bitReferences computes, per input, the blocking in-process distributed
// output that streamed and coded exchanges must reproduce exactly.
func bitReferences(w transformer, ins []input) ([][]complex128, error) {
	if !w.bitReference() {
		return make([][]complex128, len(ins)), nil
	}
	ref := newCluster(wInproc, w.size())
	if err := ref.setup(); err != nil {
		return nil, err
	}
	defer ref.close()
	out := make([][]complex128, len(ins))
	for k, in := range ins {
		out[k] = make([]complex128, w.size())
		if _, err := ref.run(nil, k, out[k], in.x); err != nil {
			return nil, fmt.Errorf("blocking reference of input %d: %w", k, err)
		}
	}
	return out, nil
}

// setUp builds the workload and runs its warm-up ops; the elapsed time
// is one setup_s sample.
func setUp(w transformer, rc runConfig, ins []input, bitRefs [][]complex128) (time.Duration, error) {
	t0 := time.Now()
	if err := w.setup(); err != nil {
		return 0, fmt.Errorf("%s: setup: %w", w.name(), err)
	}
	for i := 0; i < rc.sc.warmups; i++ {
		k := i % len(ins)
		if _, _, err := checked(w, nil, -1-i, ins[k], bitRefs[k]); err != nil {
			w.close()
			return 0, fmt.Errorf("%s: warm-up: %w", w.name(), err)
		}
	}
	return time.Since(t0), nil
}

// untracedTransform is the end-to-end pass of a transform workload: set
// up (several times, for a steady setup_s), then time transforms in a
// closed loop with one caller, checking every output.
func untracedTransform(mk func() transformer, rc runConfig) (passResult, error) {
	pr := passResult{vals: values{}}
	w := mk()
	ins, err := makeInputs(w.size(), rc.sc.inputs, rc.seed)
	if err != nil {
		return pr, err
	}
	bitRefs, err := bitReferences(w, ins)
	if err != nil {
		return pr, err
	}

	var setups []float64
	for i := 0; i < rc.sc.setups; i++ {
		if i > 0 {
			w.close()
			w = mk()
		}
		d, err := setUp(w, rc, ins, bitRefs)
		if err != nil {
			return pr, err
		}
		setups = append(setups, d.Seconds())
	}
	defer w.close()

	var (
		walls, bytes, allocs []float64
		minSNR               = math.Inf(1)
		m0, m1               runtime.MemStats
		started              = time.Now()
		window               = time.Duration(rc.seconds * float64(time.Second))
	)
	for op := 0; ; op++ {
		if rc.ops > 0 {
			if op >= rc.ops {
				break
			}
		} else if op >= rc.sc.minOps && time.Since(started) >= window {
			break
		}
		k := op % len(ins)
		pr.attempted++
		runtime.ReadMemStats(&m0)
		res, snr, err := checked(w, nil, op, ins[k], bitRefs[k])
		runtime.ReadMemStats(&m1)
		if err != nil {
			pr.failed++
			pr.notes = append(pr.notes, "FAILED "+err.Error())
			continue
		}
		walls = append(walls, ms(res.wall))
		bytes = append(bytes, float64(res.bytes))
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		minSNR = math.Min(minSNR, snr)
	}
	if len(walls) == 0 {
		return pr, fmt.Errorf("%s: no transform succeeded", w.name())
	}

	n, p50 := len(walls), median(walls)
	pr.vals.set("setup_s", median(setups), len(setups))
	pr.vals.set("wall_ms_p50", p50, n)
	// The median, not the mean: a sync.Pool workspace rebuilt after the
	// scheduler moved the caller to another P is 100 MB once in a while,
	// not what a transform allocates.
	pr.vals.set("alloc_mb_per_op", median(allocs), n)
	pr.vals.set("snr_db", minSNR, n)
	pr.vals.set("exchange_bytes_over_model", bytesOverModel(int64(median(bytes)), w.model().total()), n)
	// The service's capacity, extended to a closed loop with one caller:
	// the rate that caller sustains at the median wall.
	pr.vals.set("capacity_rps", 1e3/p50, n)
	pr.vals.set("failed_share", float64(pr.failed)/float64(pr.attempted), pr.attempted)
	return pr, nil
}

// layerCtx is what a workload's traced pass hands its layer probes.
type layerCtx struct {
	rc       runConfig
	tr       *tracer
	vals     values
	notes    *[]string
	ins      []input
	bitRefs  [][]complex128
	traced   []opResult // the traced ops
	plainP50 float64    // wall p50 of the untraced ops run beside them, ms
}

func (lc *layerCtx) note(s string) { *lc.notes = append(*lc.notes, s) }

// call wraps one call into a layer's public surface in a span and
// returns its duration in ms.
func (lc *layerCtx) call(name string, fn func()) float64 {
	id := lc.tr.begin(name, -1, -1, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	lc.tr.end(id)
	return ms(d)
}

// part is one named share of a wall, in ms.
type part struct {
	name string
	ms   float64
}

// reconcile prints the layer walls on the critical path plus the named
// remainder against the transform's wall, and what is left unexplained.
func reconcile(wallP50 float64, parts []part) string {
	var sum float64
	s := "reconcile:"
	for i, p := range parts {
		sep := " + "
		if i == 0 {
			sep = " "
		}
		s += fmt.Sprintf("%s%s %.2f", sep, p.name, p.ms)
		sum += p.ms
	}
	return s + fmt.Sprintf(" = %.2f ms vs wall_ms_p50 %.2f ms (untraced ops of this pass): %.1f%% unexplained",
		sum, wallP50, 100*math.Abs(wallP50-sum)/wallP50)
}

// tracedTransform is the per-layer pass of a transform workload: traced
// and untraced ops side by side (their ratio is the tracing overhead),
// then the workload's direct layer calls, every one inside a span.
func tracedTransform(mk func() transformer, rc runConfig) (passResult, error) {
	pr := passResult{vals: values{}}
	w := mk()
	ins, err := makeInputs(w.size(), rc.sc.inputs, rc.seed)
	if err != nil {
		return pr, err
	}
	bitRefs, err := bitReferences(w, ins)
	if err != nil {
		return pr, err
	}
	if _, err := setUp(w, rc, ins, bitRefs); err != nil {
		return pr, err
	}
	defer w.close()

	tr := newTracer()
	lc := &layerCtx{rc: rc, tr: tr, vals: pr.vals, notes: &pr.notes, ins: ins, bitRefs: bitRefs}
	var plain, traced, mallocs []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < 2*rc.sc.tracedOps; i++ {
		k := (i / 2) % len(ins)
		// Plain, traced, traced, plain: an effect with a period of two
		// ops (a collection every other transform) lands on both kinds.
		t := tr
		if i%4 == 0 || i%4 == 3 {
			t = nil
			runtime.ReadMemStats(&m0)
		}
		pr.attempted++
		res, _, err := checked(w, t, i/2, ins[k], bitRefs[k])
		if err != nil {
			pr.failed++
			pr.notes = append(pr.notes, "FAILED "+err.Error())
			continue
		}
		if t == nil {
			runtime.ReadMemStats(&m1)
			mallocs = append(mallocs, float64(m1.Mallocs-m0.Mallocs))
			plain = append(plain, ms(res.wall))
			continue
		}
		lc.traced = append(lc.traced, res)
		traced = append(traced, ms(res.wall))
	}
	if len(plain) == 0 || len(traced) == 0 {
		return pr, fmt.Errorf("%s: no traced transform succeeded", w.name())
	}
	lc.plainP50 = median(plain)
	pr.vals.set("bench.trace_overhead_pct", 100*(median(traced)/lc.plainP50-1), len(traced))
	pr.vals.set("core.allocs_per_op", median(mallocs), len(mallocs))

	if err := w.layers(lc); err != nil {
		return pr, fmt.Errorf("%s: layer probes: %w", w.name(), err)
	}
	pr.notes = append(pr.notes, tr.selfByName())
	return pr, writeTrace(tr, rc.outDir, w.name())
}

// writeTrace writes the pass's spans as trace-<workload>.json.
func writeTrace(tr *tracer, dir, workload string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.writeChrome(filepath.Join(dir, "trace-"+workload+".json"))
}
