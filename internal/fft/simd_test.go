package fft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// useGoKernels routes every pass and batch to its Go kernel until the
// test or benchmark ends, the way a CPU without AVX2 does from init.
// Nothing in this package's tests runs in parallel, so the swap is not
// shared.
func useGoKernels(tb testing.TB) {
	l8, l5, l4, f8, d8, m5 := lanes8, lanes5, lanes4, first8, dft8Pair, demod5
	lanes8, lanes5, lanes4, first8, dft8Pair, demod5 = nil, nil, nil, nil, nil, nil
	tb.Cleanup(func() { lanes8, lanes5, lanes4, first8, dft8Pair, demod5 = l8, l5, l4, f8, d8, m5 })
}

// sameBits reports whether two complex values carry the same float64
// bits, which tells +0 from −0 and one denormal from the next; NaNs
// compare equal to each other whatever their payload, since IEEE 754
// leaves the payload of an operation on two NaNs to the implementation.
func sameBits(a, b complex128) bool {
	eq := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
	}
	return eq(real(a), real(b)) && eq(imag(a), imag(b))
}

func firstBitDiff(got, want []complex128) int {
	for i := range want {
		if !sameBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}

// specials are the float64 values rounding and sign rules treat apart.
var specials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, -0x1p-1030, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, 1, -1,
}

// payloads are the ways a kernel table fills its operands.
var payloads = []string{"random", "special", "bits"}

// fill draws every value of v: normal deviates, or ("special") about one
// in four replaced by a member of specials, or ("bits") raw bit patterns
// — every exponent, denormals and NaNs included.
func fill(rng *rand.Rand, v []complex128, payload string) {
	draw := func() float64 {
		switch {
		case payload == "bits":
			return math.Float64frombits(rng.Uint64())
		case payload == "special" && rng.Intn(4) == 0:
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
	for i := range v {
		v[i] = complex(draw(), draw())
	}
}

// stageFunc is the shape of the Go stage kernels.
type stageFunc func(st *stage, x, y []complex128, lo, hi int)

// laneKernels pairs each dispatch variable with the Go kernel it stands
// in for.
func laneKernels() []struct {
	radix int
	asm   laneFunc
	goK   stageFunc
} {
	return []struct {
		radix int
		asm   laneFunc
		goK   stageFunc
	}{
		{8, lanes8, stageRadix8},
		{5, lanes5, stageRadix5},
		{4, lanes4, stageRadix4},
	}
}

// stageCase runs sub-blocks [lo, hi) of one radix-r pass of lane count s
// and m sub-blocks through applyStageRange (the seam) and through the Go
// kernel, on slices off elements into their allocation, and compares
// every output cell — the ones outside the range must keep the sentinel
// both started from.
func stageCase(rng *rand.Rand, r, s, m, lo, hi, off int, payload string, goK stageFunc) error {
	n := r * m * s
	st := &stage{radix: r, m: m, s: s, tw: make([]complex128, off+m*(r-1))[off:]}
	fill(rng, st.tw, payload)
	x := make([]complex128, off+n)[off:]
	fill(rng, x, payload)
	got := make([]complex128, off+n)[off:]
	want := make([]complex128, n)
	for i := range want {
		got[i], want[i] = complex(7, -7), complex(7, -7)
	}
	applyStageRange(st, x, got, lo, hi)
	goK(st, x, want, lo, hi)
	if i := firstBitDiff(got, want); i >= 0 {
		return fmt.Errorf("radix %d s %d m %d [%d,%d) off %d %s: y[%d] = %v, Go kernel %v",
			r, s, m, lo, hi, off, payload, i, got[i], want[i])
	}
	return nil
}

// demodCase runs a last radix-5 pass (m = 1) of lane count s that keeps
// n outputs through lastPassDemod (the seam) and, as the definition,
// through stageRadix5 followed by the multiply, on slices off elements
// into their allocation; the cell past dst must keep its sentinel.
func demodCase(rng *rand.Rand, s, n, off int, payload string) error {
	st := &stage{radix: 5, m: 1, s: s, tw: make([]complex128, off+4)[off:]}
	fill(rng, st.tw, payload)
	x := make([]complex128, off+5*s)[off:]
	fill(rng, x, payload)
	w := make([]complex128, off+n)[off:]
	fill(rng, w, payload)
	y := make([]complex128, 5*s)
	stageRadix5(st, x, y, 0, 1)
	want := make([]complex128, n+1)
	mulInto(want[:n], y, w)
	got := make([]complex128, off+n+1)[off:]
	got[n], want[n] = complex(7, -7), complex(7, -7)
	lastPassDemod(st, x, nil, got[:n], w)
	if i := firstBitDiff(got, want); i >= 0 {
		return fmt.Errorf("demod s %d n %d off %d %s: dst[%d] = %v, stageRadix5·w %v",
			s, n, off, payload, i, got[i], want[i])
	}
	return nil
}

// TestStageKernelsMatchGo is the bit-identity table of the lane seam:
// whatever applyStageRange runs for a (radix, s) must return the Go
// kernel's bits, over lane counts from one vector to segment size,
// sub-ranges, 32-byte-misaligned slices and payloads that exercise the
// sign, denormal, overflow and NaN rules. Odd s has no lane form and must
// take the Go kernel; s = 1 at radix 8 is the first-pass kernel, which
// pairs sub-blocks and leaves an odd one to Go.
func TestStageKernelsMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, k := range laneKernels() {
		if k.asm == nil {
			t.Logf("radix %d: no AVX2 kernel on this host or build (kernel %q), assembly half skipped", k.radix, Kernel())
		}
		for _, s := range []int{2, 4, 8, 64, 512, 4096, 1, 3, 7} {
			ms := []int{1, 3}
			if s <= 64 {
				ms = append(ms, 10)
			}
			for _, m := range ms {
				for _, rg := range [][2]int{{0, m}, {1, m}, {0, m - 1}, {1, 1}} {
					if rg[0] > rg[1] {
						continue
					}
					for off := 0; off < 2; off++ {
						for _, payload := range payloads {
							if err := stageCase(rng, k.radix, s, m, rg[0], rg[1], off, payload, k.goK); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
			}
		}
	}
	// The demodulating last pass: every partial output count around the
	// row boundaries, odd lane counts (a Go tail lane) included.
	for _, s := range []int{1, 2, 3, 8, 9, 64, 4096} {
		for _, n := range []int{0, 1, s - 1, s, s + 1, 4*s - 1, 4 * s, 4*s + 1, 5*s - 1, 5 * s} {
			if n < 0 || n > 5*s {
				continue
			}
			for off := 0; off < 2; off++ {
				for _, payload := range payloads {
					if err := demodCase(rng, s, n, off, payload); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestOddLaneCountTakesGoKernel: the assembly handles lanes in pairs, so
// a pass with odd s must never reach it — here a kernel that panics.
func TestOddLaneCountTakesGoKernel(t *testing.T) {
	useGoKernels(t)
	trap := func(x, y, tw *complex128, s, m, count int) { panic("lane kernel called for odd s") }
	lanes8, lanes5, lanes4 = trap, trap, trap
	rng := rand.New(rand.NewSource(3))
	for _, k := range laneKernels() {
		for _, s := range []int{1, 3, 5, 9} {
			if err := stageCase(rng, k.radix, s, 4, 0, 4, 0, "random", k.goK); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Radices without a kernel ignore the variables altogether.
	for _, r := range []int{2, 3, 7} {
		st := buildStages(r*8, []int{8, r})[1]
		src := randomVec(r*8, 4)
		applyStage(&st, src, make([]complex128, r*8))
	}
}

// TestStageLanesRejectsShortSlices: the seam is the assembly's only
// bounds check, so a slice one element short must panic, not compute.
func TestStageLanesRejectsShortSlices(t *testing.T) {
	if lanes8 == nil {
		t.Skipf("kernel %q: nothing behind the seam to protect", Kernel())
	}
	const r, s, m = 8, 4, 3
	n := r * s * m
	full := func() (*stage, []complex128, []complex128) {
		return &stage{radix: r, m: m, s: s, tw: make([]complex128, m*(r-1))}, make([]complex128, n), make([]complex128, n)
	}
	for name, call := range map[string]func(){
		"short x":         func() { st, x, y := full(); stageLanes(lanes8, st, x[:n-1], y, 0, m) },
		"short y":         func() { st, x, y := full(); stageLanes(lanes8, st, x, y[:n-1], 0, m) },
		"short tw":        func() { st, x, y := full(); st.tw = st.tw[:len(st.tw)-1]; stageLanes(lanes8, st, x, y, 0, m) },
		"hi > m":          func() { st, x, y := full(); stageLanes(lanes8, st, x, y, 0, m+1) },
		"lo < 0":          func() { st, x, y := full(); stageLanes(lanes8, st, x, y, -1, m) },
		"first: short x":  func() { st, x, y := full(); st.s = 1; st.m = n / r; stageFirst8(st, x[:n-1], y, 0, n/r) },
		"first: short y":  func() { st, x, y := full(); st.s = 1; st.m = n / r; stageFirst8(st, x, y[:n-1], 0, n/r) },
		"first: short tw": func() { st, x, y := full(); st.s = 1; st.m = n / r; stageFirst8(st, x, y, 0, n/r) },
		"short src": func() {
			dft8Rows(make([]complex128, 32), make([]complex128, 31), 4, 8, 1)
		},
		"demod: short x": func() {
			st := &stage{radix: 5, m: 1, s: 4, tw: make([]complex128, 4)}
			stageRadix5DemodRange(st, make([]complex128, 19), make([]complex128, 16), make([]complex128, 16), 0, 4, 4)
		},
		"demod: short dst": func() {
			st := &stage{radix: 5, m: 1, s: 4, tw: make([]complex128, 4)}
			stageRadix5DemodRange(st, make([]complex128, 20), make([]complex128, 15), make([]complex128, 16), 0, 4, 4)
		},
		"demod: short w": func() {
			st := &stage{radix: 5, m: 1, s: 4, tw: make([]complex128, 4)}
			stageRadix5DemodRange(st, make([]complex128, 20), make([]complex128, 16), make([]complex128, 15), 0, 4, 4)
		},
		"demod: short tw": func() {
			st := &stage{radix: 5, m: 1, s: 4, tw: make([]complex128, 3)}
			stageRadix5DemodRange(st, make([]complex128, 20), make([]complex128, 16), make([]complex128, 16), 0, 4, 4)
		},
		"short dst": func() {
			dft8Rows(make([]complex128, 7*10+3), make([]complex128, 32), 4, 1, 10)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// batchCase compares Batch (in and out of place) and BatchScatter of an
// 8-point plan with codelet8 row by row.
func batchCase(rng *rand.Rand, p *Plan, count, stride, off int, payload string) error {
	const n = 8
	src := make([]complex128, off+count*n)[off:]
	fill(rng, src, payload)
	want := make([]complex128, count*n)
	for i := 0; i < count; i++ {
		codelet8(want[i*n:(i+1)*n], src[i*n:(i+1)*n])
	}
	got := make([]complex128, off+count*n)[off:]
	p.Batch(got, src, count)
	if i := firstBitDiff(got, want); i >= 0 {
		return fmt.Errorf("Batch count %d off %d %s: [%d] = %v, codelet8 %v", count, off, payload, i, got[i], want[i])
	}
	copy(got, src)
	p.Batch(got, got, count)
	if i := firstBitDiff(got, want); i >= 0 {
		return fmt.Errorf("in-place Batch count %d off %d %s: [%d] = %v, codelet8 %v", count, off, payload, i, got[i], want[i])
	}
	scat := make([]complex128, off+(n-1)*stride+count)[off:]
	wantScat := make([]complex128, len(scat))
	for i := range scat {
		scat[i], wantScat[i] = complex(7, -7), complex(7, -7)
	}
	for i := 0; i < count; i++ {
		for u := 0; u < n; u++ {
			wantScat[u*stride+i] = want[i*n+u]
		}
	}
	p.BatchScatter(scat, src, count, stride)
	if i := firstBitDiff(scat, wantScat); i >= 0 {
		return fmt.Errorf("BatchScatter count %d stride %d off %d %s: [%d] = %v, want %v", count, stride, off, payload, i, scat[i], wantScat[i])
	}
	return nil
}

// TestDFT8PairMatchesGo is the bit-identity table of the pair seam: rows
// two at a time through both stride forms, odd tails, misaligned slices.
func TestDFT8PairMatchesGo(t *testing.T) {
	if dft8Pair == nil {
		t.Logf("no AVX2 kernel on this host or build (kernel %q), assembly half skipped", Kernel())
	}
	p, err := NewPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for _, count := range []int{0, 1, 2, 3, 8, 255, 256} {
		for _, stride := range []int{count, count + 1, 2*count + 5} {
			for off := 0; off < 2; off++ {
				for _, payload := range payloads {
					if err := batchCase(rng, p, count, stride, off, payload); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

// TestBatchScatterMatchesBatch: for any plan, BatchScatter is Batch
// followed by the transposing copy.
func TestBatchScatterMatchesBatch(t *testing.T) {
	for _, n := range []int{1, 2, 4, 5, 8, 64, 17 * 37} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		const count, stride = 7, 11
		src := randomVec(count*n, int64(n))
		rows := make([]complex128, count*n)
		p.Batch(rows, src, count)
		got := make([]complex128, (n-1)*stride+count)
		p.BatchScatter(got, src, count, stride)
		for i := 0; i < count; i++ {
			for u := 0; u < n; u++ {
				if !sameBits(got[u*stride+i], rows[i*n+u]) {
					t.Fatalf("n %d: dst[%d·%d+%d] = %v, Batch row %d gives %v", n, u, stride, i, got[u*stride+i], i, rows[i*n+u])
				}
			}
		}
	}
}

func TestBatchScatterRejectsBadShapes(t *testing.T) {
	p, _ := NewPlan(8)
	src := make([]complex128, 4*8)
	for name, call := range map[string]func(){
		"short dst":      func() { p.BatchScatter(make([]complex128, 7*10+3), src, 4, 10) },
		"short src":      func() { p.BatchScatter(make([]complex128, 80), src[:31], 4, 10) },
		"stride < count": func() { p.BatchScatter(make([]complex128, 80), src, 4, 3) },
		"negative count": func() { p.BatchScatter(make([]complex128, 80), src, -1, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
	p.BatchScatter(nil, nil, 0, 0) // must not panic
}

// TestPlansBitIdenticalAcrossKernels runs whole plans — the SOI segment
// lengths M' = 81 920 and 163 840, the plain 2²⁰, a radix-3·5·7 mix and
// the small sizes around them — with the kernels init chose and with the
// Go kernels, through every entry point that reaches a kernel.
func TestPlansBitIdenticalAcrossKernels(t *testing.T) {
	if Kernel() == "go" {
		t.Skipf("kernel %q: both legs would run the Go kernels", Kernel())
	}
	sizes := []int{8, 64, 640, 2560, 81920, 163840, 1 << 20, 8 * 3 * 5 * 7}
	if testing.Short() {
		sizes = []int{8, 64, 640, 2560, 8 * 3 * 5 * 7}
	}
	type result struct{ fwd, demod, batch, scat []complex128 }
	const count = 3
	run := func(n int, src []complex128) result {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		r := result{
			fwd:   make([]complex128, n),
			batch: make([]complex128, count*n), scat: make([]complex128, count*n),
		}
		p.Forward(r.fwd, src[:n])
		r.demod = make([]complex128, n*4/5)
		p.ForwardDemod(r.demod, append([]complex128(nil), src[:n]...), randomVec(len(r.demod), int64(n)+21))
		if n <= 2560 {
			p.Batch(r.batch, src, count)
			p.BatchScatter(r.scat, src, count, count)
		}
		return r
	}
	for _, n := range sizes {
		src := randomVec(count*min(n, 2560)+n, int64(n)+20)
		got := run(n, src)
		var want result
		func() {
			useGoKernels(t)
			want = run(n, src)
		}()
		for name, pair := range map[string][2][]complex128{
			"Forward": {got.fwd, want.fwd}, "ForwardDemod": {got.demod, want.demod},
			"Batch": {got.batch, want.batch}, "BatchScatter": {got.scat, want.scat},
		} {
			if i := firstBitDiff(pair[0], pair[1]); i >= 0 {
				t.Errorf("n %d %s: [%d] = %v, Go kernels %v", n, name, i, pair[0][i], pair[1][i])
			}
		}
	}
}

// TestKernelNamesDispatch: the name reports follow the dispatch
// variables, which init sets together.
func TestKernelNamesDispatch(t *testing.T) {
	want := "go"
	if lanes8 != nil {
		want = "avx2"
	}
	if got := Kernel(); got != want {
		t.Errorf("Kernel() = %q with lanes8 set: %v", got, lanes8 != nil)
	}
	for name, set := range map[string]bool{
		"lanes5": lanes5 != nil, "lanes4": lanes4 != nil, "first8": first8 != nil, "dft8Pair": dft8Pair != nil,
		"demod5": demod5 != nil,
	} {
		if set != (lanes8 != nil) {
			t.Errorf("dispatch variables disagree: lanes8 set %v, %s set %v", lanes8 != nil, name, set)
		}
	}
	useGoKernels(t)
	if got := Kernel(); got != "go" {
		t.Errorf("Kernel() = %q with no SIMD kernel installed", got)
	}
}

// FuzzStageKernelsMatchGo lets the engine pick the radix, the shape, the
// sub-range, the alignment and the operand bits of one pass, and the row
// count and stride of one DFT-8 batch.
func FuzzStageKernelsMatchGo(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(1), uint8(3), uint8(0), uint8(3), false, uint8(0))
	f.Add(int64(2), uint8(1), uint8(32), uint8(1), uint8(0), uint8(1), true, uint8(1))
	f.Add(int64(3), uint8(2), uint8(7), uint8(5), uint8(2), uint8(4), true, uint8(2))
	p8, err := NewPlan(8)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, kernel, lanes, blocks, lo, hi uint8, odd bool, payload uint8) {
		k := laneKernels()[int(kernel)%3]
		s, m, off := 1+int(lanes)%96, 1+int(blocks)%6, 0
		if odd {
			off = 1
		}
		a, b := int(lo)%(m+1), int(hi)%(m+1)
		if a > b {
			a, b = b, a
		}
		pl := payloads[int(payload)%len(payloads)]
		rng := rand.New(rand.NewSource(seed))
		if err := stageCase(rng, k.radix, s, m, a, b, off, pl, k.goK); err != nil {
			t.Fatal(err)
		}
		count := int(lanes) % 40
		if err := batchCase(rng, p8, count, count+int(blocks), off, pl); err != nil {
			t.Fatal(err)
		}
		// The demodulating last pass keeps any prefix of the 5·s outputs.
		if err := demodCase(rng, s, (int(lo)<<8|int(hi))%(5*s+1), off, pl); err != nil {
			t.Fatal(err)
		}
	})
}
