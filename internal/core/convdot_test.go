package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"soifft/internal/signal"
)

// useConvolveKernel runs the convolution on the named tier until the
// test or benchmark ends, the way a CPU with no higher one does from
// init: "avx2" clears the four-row kernel, "go" every kernel variable.
// The tiers nest, so a test can only step down from the one init chose.
// Nothing in this package's tests runs in parallel, so the swap is not
// shared.
func useConvolveKernel(tb testing.TB, name string) {
	rows, row, split := convRows8, convRow8, splitBlocks
	tb.Cleanup(func() { convRows8, convRow8, splitBlocks = rows, row, split })
	switch name {
	case "avx2":
		convRows8 = nil
	case "go":
		convRows8, convRow8, splitBlocks = nil, nil, nil
	}
	if got := ConvolveKernel(); got != name {
		tb.Fatalf("convolution kernel %q is not available here: running %q", name, got)
	}
}

// convolveKernels lists the convolution tiers this host and build run:
// the one init chose and every one below it.
func convolveKernels() []string {
	all := []string{"avx512", "avx2", "go"}
	return all[slices.Index(all, ConvolveKernel()):]
}

// convDotGo is the bit reference of every convolution kernel, on
// interleaved complex operands: out[i] = ph[i] · Σ_b h[b·lanes+i]·x[b·lanes+i],
// even and odd taps in two accumulator pairs added once at the end,
// each tap's multiply-add fused into one rounding, and each phase
// component one rounded product fused with the other (see convRowGo).
func convDotGo(out []complex128, h []float64, x, ph []complex128, lanes int) {
	n := len(h)
	if len(x) != n {
		panic("core: convDotGo: input slab and tap slab differ in length")
	}
	step := 2 * lanes
	for i := range out {
		var re0, im0, re1, im1 float64
		k := i
		for ; k+lanes < n; k += step {
			h0, x0 := h[k], x[k]
			re0 = math.FMA(h0, real(x0), re0)
			im0 = math.FMA(h0, imag(x0), im0)
			h1, x1 := h[k+lanes], x[k+lanes]
			re1 = math.FMA(h1, real(x1), re1)
			im1 = math.FMA(h1, imag(x1), im1)
		}
		if k < n {
			h0, x0 := h[k], x[k]
			re0 = math.FMA(h0, real(x0), re0)
			im0 = math.FMA(h0, imag(x0), im0)
		}
		p := ph[i]
		re, im := re0+re1, im0+im1
		out[i] = complex(math.FMA(re, real(p), -(im*imag(p))), math.FMA(re, imag(p), im*real(p)))
	}
}

// splitOf lays a block-major slab x (lanes per block) and the lane
// phases out as convRow reads them — each block's reals then its
// imaginaries, the phases' reals then imaginaries — off float64s into
// their allocations.
func splitOf(x, ph []complex128, lanes, off int) (xs, phs []float64) {
	xs = make([]float64, off+2*len(x))[off:]
	for e, v := range x {
		o := 2*(e/lanes)*lanes + e%lanes
		xs[o], xs[o+lanes] = real(v), imag(v)
	}
	phs = make([]float64, off+2*lanes)[off:]
	for i, v := range ph {
		phs[i], phs[lanes+i] = real(v), imag(v)
	}
	return xs, phs
}

// convRowCase runs one row through convRow (the seam) and convRowGo on
// the split operands, and convDotGo on the interleaved ones.
func convRowCase(h []float64, x, ph []complex128, taps, lanes, off int) error {
	xs, phs := splitOf(x, ph, lanes, off)
	want := make([]complex128, lanes)
	convDotGo(want, h, x, ph, lanes)
	got := make([]complex128, off+lanes)[off:]
	goK := make([]complex128, lanes)
	convRow(got, h, xs, phs, taps, lanes)
	convRowGo(goK, h, xs, phs, lanes)
	for i := range want {
		if !sameBits(got[i], want[i]) || !sameBits(goK[i], want[i]) {
			return fmt.Errorf("lanes %d taps %d off %d: lane %d = %v (seam), %v (convRowGo), reference %v",
				lanes, taps, off, i, got[i], goK[i], want[i])
		}
	}
	return nil
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

// specials are the float64 values rounding and sign rules treat apart.
var specials = []float64{
	0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, -0x1p-1030, math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, 1, -1,
}

// drawer returns a source of operand values: every value random, or
// (special) about one in four replaced by a member of specials.
func drawer(rng *rand.Rand, special bool) func() float64 {
	return func() float64 {
		if special && rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
}

// fillSlab draws one row's operands from drawer.
func fillSlab(rng *rand.Rand, h []float64, x, ph []complex128, special bool) {
	draw := drawer(rng, special)
	for i := range h {
		h[i] = draw()
	}
	for i := range x {
		x[i] = complex(draw(), draw())
	}
	for i := range ph {
		ph[i] = complex(draw(), draw())
	}
}

// TestConvDotMatchesGo is the bit-identity table of the dispatch seam:
// whatever convRow runs for a lane count on the split operands, and its
// Go twin convRowGo, must return convDotGo's bits on the interleaved ones.
func TestConvDotMatchesGo(t *testing.T) {
	if convRow8 == nil {
		t.Logf("no AVX2 kernel on this host or build (kernel %q), assembly half skipped", ConvolveKernel())
	}
	rng := rand.New(rand.NewSource(14))
	for _, lanes := range []int{8, 16, 24, 4, 6, 3} {
		for _, taps := range []int{1, 2, 71, 72, 73} {
			// Offsets 0, 1 and 2 elements into one allocation: float64
			// operands 0, 8 and 16 bytes and complex outputs 0, 16 and 32
			// bytes off a 32-byte boundary.
			for off := 0; off < 3; off++ {
				for _, special := range []bool{false, true} {
					n := taps * lanes
					h := make([]float64, off+n)[off:]
					x := make([]complex128, n)
					ph := make([]complex128, lanes)
					fillSlab(rng, h, x, ph, special)
					if err := convRowCase(h, x, ph, taps, lanes, off); err != nil {
						t.Fatalf("special %v: %v", special, err)
					}
				}
			}
		}
	}
}

// at64 returns n zero values whose first lies off elements past a
// 64-byte boundary: the width of a zmm load and of a cache line.
func at64[T float64 | complex128](tb testing.TB, n, off int) []T {
	var zero T
	size := int(unsafe.Sizeof(zero))
	s := make([]T, n+off+64/size)
	for i := range 64 / size {
		if uintptr(unsafe.Pointer(&s[i]))%64 == 0 {
			return s[i+off:][:n]
		}
	}
	tb.Fatalf("no %d-byte element of a fresh slice lies on a 64-byte boundary", size)
	return nil
}

// fillFloats draws every value of v.
func fillFloats(draw func() float64, v ...[]float64) {
	for _, s := range v {
		for i := range s {
			s[i] = draw()
		}
	}
}

// convRows4Case runs four rows of one phase through convRows4 (the
// seam), row k reading x[k·xstride:] and writing out[k·ostride:], and each row
// through convRowGo alone: every lane must carry the same bits, and the
// outputs between the rows must keep their poison.
func convRows4Case(out []complex128, h, x, ph []float64, taps, lanes, xstride, ostride int) error {
	poison := complex(math.Inf(1), -7)
	for i := range out {
		out[i] = poison
	}
	convRows4(out, h, x, ph, taps, lanes, xstride, ostride)
	want := make([]complex128, lanes)
	for k := range 4 {
		convRowGo(want, h, x[k*xstride:k*xstride+2*taps*lanes], ph, lanes)
		for i, w := range want {
			if got := out[k*ostride+i]; !sameBits(got, w) {
				return fmt.Errorf("lanes %d taps %d slab stride %d: row %d lane %d = %v (convRows4, %s), convRowGo %v",
					lanes, taps, xstride, k, i, got, ConvolveKernel(), w)
			}
		}
	}
	for e, v := range out {
		if e%ostride >= lanes && v != poison {
			return fmt.Errorf("lanes %d taps %d: convRows4 wrote %v at %d, between rows %d apart", lanes, taps, v, e, ostride)
		}
	}
	return nil
}

// TestConvRows4MatchesGo is the bit-identity table of the four-row
// seam: each of the four rows of one phase, whose staged slabs lie ν
// blocks apart, returns convRowGo's bits on its own slab, with operands
// on and 8 or 32 bytes off a 64-byte boundary.
func TestConvRows4MatchesGo(t *testing.T) {
	if convRows8 == nil {
		t.Logf("no AVX-512 kernel on this host or build (kernel %q), four-row assembly skipped", ConvolveKernel())
	}
	const mu = 5
	rng := rand.New(rand.NewSource(52))
	for _, lanes := range []int{8, 16, 24} {
		for _, taps := range []int{1, 2, 71, 72, 73} {
			for _, nu := range []int{1, 2, 4} {
				for _, off := range []int{0, 1, 4} {
					for _, special := range []bool{false, true} {
						n, xstride, ostride := taps*lanes, 2*nu*lanes, mu*lanes
						h, x, ph := at64[float64](t, n, off), at64[float64](t, 3*xstride+2*n, off), at64[float64](t, 2*lanes, off)
						fillFloats(drawer(rng, special), h, x, ph)
						out := at64[complex128](t, 3*ostride+lanes, off)
						if err := convRows4Case(out, h, x, ph, taps, lanes, xstride, ostride); err != nil {
							t.Fatalf("ν %d off %d special %v: %v", nu, off, special, err)
						}
					}
				}
			}
		}
	}
}

// TestConvRowFuses pins where the convolution rounds, against bits worked
// out by hand rather than against another kernel, so a kernel that drops
// the fused multiply-add fails here by name, even when the assembly and
// its Go twin drop it together. With a = 1+2⁻²⁷ and b = 1−2⁻²⁷,
// a·b = 1−2⁻⁵⁴ rounds to 1 on its own, so fma(a, b, −1) = −2⁻⁵⁴ where
// round(a·b) − 1 = 0. The MAC lanes seed an accumulator with −1 through
// an earlier tap of the same set (and pass the sum through the phase 1
// exactly); the phase lanes pass one tap through exactly and put the
// cancellation in the phase multiply, where the contract fuses re·pr
// and re·pi and rounds im·pi and im·pr.
func TestConvRowFuses(t *testing.T) {
	const a, b, d = 1 + 0x1p-27, 1 - 0x1p-27, -0x1p-54
	type lane struct {
		name       string
		h          []float64
		x          []complex128
		ph, want   complex128
		mulThenAdd complex128 // what rounding every product before its add returns
	}
	phase := []lane{
		{"phase re·pr fused", []float64{1}, []complex128{complex(a, 1)}, complex(b, 1), complex(d, 2), complex(0, 2)},
		{"phase im·pi rounded", []float64{1}, []complex128{complex(1, a)}, complex(1, b), complex(0, 2), complex(0, 2)},
		{"phase re·pi fused", []float64{1}, []complex128{complex(a, -1)}, complex(1, b), complex(2, d), complex(2, 0)},
		{"phase im·pr rounded", []float64{1}, []complex128{complex(1, a)}, complex(b, -1), complex(2, 0), complex(2, 0)},
	}
	even := lane{"even-set tap MAC", []float64{1, 0, a, 0}, []complex128{-1 - 1i, 0, complex(b, b), 0}, 1, complex(d, d), 0}
	odd := lane{"odd-set tap MAC", []float64{0, 1, 0, a}, []complex128{0, -1 - 1i, 0, complex(b, b)}, 1, complex(d, d), 0}
	tail := lane{"odd-tail tap MAC", []float64{1, 0, a}, []complex128{-1 - 1i, 0, complex(b, b)}, 1, complex(d, d), 0}
	rows := []struct {
		taps  int
		lanes []lane
	}{
		{4, append([]lane{even, odd}, append(phase, even, odd)...)},
		{3, append([]lane{tail}, append(phase, tail, tail, tail)...)},
	}
	const lanes = 8
	for _, row := range rows {
		h := make([]float64, row.taps*lanes)
		x := make([]complex128, row.taps*lanes)
		ph := make([]complex128, lanes)
		for i, l := range row.lanes {
			for k := range l.h {
				h[k*lanes+i], x[k*lanes+i] = l.h[k], l.x[k]
			}
			ph[i] = l.ph
		}
		xs, phs := splitOf(x, ph, lanes, 0)
		type kernel struct {
			name string
			run  func(out []complex128)
		}
		kernels := []kernel{
			{"convRow (" + ConvolveKernel() + ")", func(out []complex128) { convRow(out, h, xs, phs, row.taps, lanes) }},
			{"convRowGo", func(out []complex128) { convRowGo(out, h, xs, phs, lanes) }},
			{"convDotGo", func(out []complex128) { convDotGo(out, h, x, ph, lanes) }},
		}
		// The four-row seam, each row on its own copy of the slab.
		x4 := make([]float64, 0, 4*len(xs))
		for range 4 {
			x4 = append(x4, xs...)
		}
		for r := range 4 {
			kernels = append(kernels, kernel{fmt.Sprintf("convRows4 (%s) row %d", ConvolveKernel(), r), func(out []complex128) {
				rows := make([]complex128, 4*lanes)
				convRows4(rows, h, x4, phs, row.taps, lanes, len(xs), lanes)
				copy(out, rows[r*lanes:])
			}})
		}
		for _, k := range kernels {
			out := make([]complex128, lanes)
			k.run(out)
			for i, l := range row.lanes {
				if sameBits(out[i], l.want) {
					continue
				}
				how := ""
				if sameBits(out[i], l.mulThenAdd) {
					how = ", the bits of a product rounded before its add"
				}
				t.Errorf("%s taps %d lane %d (%s) = %v, want %v%s: the convolution's bit contract fuses every tap's multiply-add and the phase's re·pr and re·pi products with their add/subtract (math.FMA in convRowGo), and no other product",
					k.name, row.taps, i, l.name, out[i], l.want, how)
			}
		}
	}
}

// TestConvDotRejectsShortSlab: the seam is the assembly's only bounds
// check, so a window one element short must panic, not compute.
func TestConvDotRejectsShortSlab(t *testing.T) {
	const lanes, taps = 8, 4
	h := make([]float64, taps*lanes)
	x := make([]float64, 2*taps*lanes)
	ph := make([]float64, 2*lanes)
	out := make([]complex128, lanes)
	for name, call := range map[string]func(){
		"short x":   func() { convRow(out, h, x[:len(x)-1], ph, taps, lanes) },
		"short out": func() { convRow(out[:lanes-1], h, x, ph, taps, lanes) },
		"short ph":  func() { convRow(out, h, x, ph[:len(ph)-1], taps, lanes) },
		"short h":   func() { convRow(out, h[:taps*lanes-1], x[:len(x)-2], ph, taps, lanes) },
		"no taps":   func() { convRow(out, nil, nil, ph, 0, lanes) },
		"go kernel": func() { convRowGo(out, h, x[:len(x)-1], ph, lanes) },
		"short window": func() {
			splitRun(make([]float64, 2*taps*lanes-1), 0, make([]complex128, taps*lanes), lanes, false)
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

// TestStageSplitsBodyAndTail: a staged window holds column c of body or,
// past its end, of tail, as block reals then block imaginaries, the
// imaginaries negated when conjugating — wherever the body ends, on a
// block boundary or inside a block — on the dispatched staging and on
// the Go loop alone, special values included.
func TestStageSplitsBodyAndTail(t *testing.T) {
	t.Run("dispatched", testStageSplits)
	t.Run("go", func(t *testing.T) {
		useConvolveKernel(t, "go")
		testStageSplits(t)
	})
}

func testStageSplits(t *testing.T) {
	const lanes = 4
	body, tail := signal.Random(37, 1), signal.Random(19, 2)
	for i, v := range specials {
		body[i] = complex(v, specials[len(specials)-1-i])
	}
	for _, conj := range []bool{false, true} {
		for _, col := range []int{0, 3, 100} {
			in := convSource{body: body, tail: tail, col: col, conj: conj}
			for _, win := range [][2]int{{0, 8}, {0, 36}, {8, 40}, {32, 44}, {36, 56}, {40, 52}} {
				c0, c1 := col+win[0], col+win[1]
				buf := make([]float64, 2*(c1-c0))
				in.stage(buf, c0, c1, lanes)
				for c := c0; c < c1; c++ {
					var v complex128
					if c-col < len(body) {
						v = body[c-col]
					} else {
						v = tail[c-col-len(body)]
					}
					if conj {
						v = complex(real(v), -imag(v))
					}
					e := c - c0
					o := 2*(e/lanes)*lanes + e%lanes
					if got := complex(buf[o], buf[o+lanes]); !sameBits(got, v) {
						t.Fatalf("conj %v col %d window %v: column %d staged as %v, want %v", conj, col, win, c, got, v)
					}
				}
			}
		}
	}
}

// haloExtended returns a seeded input of the plan's length followed by
// its own head, the window ConvolveRange reads for the whole row range.
func haloExtended(pl *Plan, seed int64) []complex128 {
	n := pl.Params().N
	ext := make([]complex128, n+pl.HaloLen())
	copy(ext, signal.Random(n, seed))
	copy(ext[n:], ext[:pl.HaloLen()])
	return ext
}

// convolveAll runs ConvolveRange over every row of a fresh plan.
func convolveAll(tb testing.TB, p Params, seed int64) []complex128 {
	pl, err := NewPlan(p)
	if err != nil {
		tb.Fatal(err)
	}
	out := make([]complex128, pl.NPrime())
	pl.ConvolveRange(out, haloExtended(pl, seed), 0, pl.MPrime(), 0)
	return out
}

// TestConvolveRangeKernelsBitEqual runs a whole plan's convolution on
// every kernel tier this host has against the Go kernel.
func TestConvolveRangeKernelsBitEqual(t *testing.T) {
	for _, p := range []Params{
		{N: 1 << 14, P: 8, Mu: 5, Nu: 4, B: 72},
		{N: 1 << 13, P: 16, Mu: 5, Nu: 4, B: 31},
		{N: 1 << 12, P: 4, Mu: 5, Nu: 4, B: 24},
	} {
		t.Run(fmt.Sprintf("P=%d,B=%d", p.P, p.B), func(t *testing.T) {
			out := map[string][]complex128{}
			for _, k := range convolveKernels() {
				t.Run(k, func(t *testing.T) {
					useConvolveKernel(t, k)
					out[k] = convolveAll(t, p, 3)
				})
			}
			for k, got := range out {
				for i, want := range out["go"] {
					if !sameBits(got[i], want) {
						t.Fatalf("element %d = %v on the %s kernel, Go kernel %v", i, got[i], k, want)
					}
				}
			}
		})
	}
	if len(convolveKernels()) == 1 {
		t.Skipf("kernel %q: only the Go kernel ran, no assembly was compared", ConvolveKernel())
	}
}

// TestConvolveKernelNamesDispatch: the name reports follow the decision
// init made, and that decision follows the build and the CPU.
func TestConvolveKernelNamesDispatch(t *testing.T) {
	want := "go"
	switch {
	case convRows8 != nil:
		want = "avx512"
	case convRow8 != nil:
		want = "avx2"
	}
	if got := ConvolveKernel(); got != want {
		t.Errorf("ConvolveKernel() = %q with convRows8 set %v, convRow8 set %v", got, convRows8 != nil, convRow8 != nil)
	}
	if (splitBlocks != nil) != (convRow8 != nil) || (convRows8 != nil && convRow8 == nil) {
		t.Errorf("dispatch variables disagree: convRows8 set %v, convRow8 set %v, splitBlocks set %v",
			convRows8 != nil, convRow8 != nil, splitBlocks != nil)
	}
	for _, k := range convolveKernels() {
		t.Run(k, func(t *testing.T) {
			useConvolveKernel(t, k) // fails the test where the name does not follow the variables
		})
	}
}

// FuzzConvDotMatchesGo lets the engine pick the shape, the alignment and
// the operand bits, for one row through convRow and four rows of one
// phase through convRows4.
func FuzzConvDotMatchesGo(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(72), false, false)
	f.Add(int64(2), uint8(2), uint8(71), true, true)
	f.Add(int64(3), uint8(3), uint8(1), true, false)
	f.Add(int64(4), uint8(13), uint8(73), false, true)
	f.Fuzz(func(t *testing.T, seed int64, blocks, taps uint8, odd, special bool) {
		lanes, nt, off := 8*(1+int(blocks)%4), 1+int(taps)%96, 0
		if odd {
			off = 1
		}
		rng := rand.New(rand.NewSource(seed))
		h := make([]float64, off+nt*lanes)[off:]
		x := make([]complex128, nt*lanes)
		ph := make([]complex128, lanes)
		fillSlab(rng, h, x, ph, special)
		if !special {
			// Raw bit patterns: every exponent, denormals and NaNs included.
			for i := range h {
				h[i] = math.Float64frombits(rng.Uint64())
			}
		}
		if err := convRowCase(h, x, ph, nt, lanes, off); err != nil {
			t.Fatal(err)
		}
		// The same taps and phases for four rows of one phase, their
		// slabs 1 to 4 blocks apart.
		n, xstride, ostride := nt*lanes, 2*(1+int(blocks/4)%4)*lanes, 5*lanes
		x4, phs := make([]float64, off+3*xstride+2*n)[off:], make([]float64, 2*lanes)
		fillFloats(drawer(rng, special), x4, phs)
		if err := convRows4Case(make([]complex128, 3*ostride+lanes), h, x4, phs, nt, lanes, xstride, ostride); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkConvolveRange measures the SOI convolution W·x — the "extra"
// arithmetic SOI trades for communication (Section 6 loops a–d) — at the
// paper's shape, one leg per kernel tier this host has: the one init
// chose and every one below it. GF/s is the nominal ConvFlops
// count (8 per complex multiply-add) like every other report; the real-tap
// kernels execute half of it.
func BenchmarkConvolveRange(b *testing.B) {
	const n = 1 << 18
	pl, err := NewPlan(Params{N: n, P: 8, Mu: 5, Nu: 4, B: 72})
	if err != nil {
		b.Fatal(err)
	}
	ext := haloExtended(pl, 3)
	out := make([]complex128, pl.NPrime())
	run := func(b *testing.B, convolve func(dst, src []complex128, jLo, jHi, colOff int)) {
		b.SetBytes(n * 16)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			convolve(out, ext, 0, pl.MPrime(), 0)
		}
		b.ReportMetric(float64(pl.ConvFlops())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
	}
	for _, k := range convolveKernels() {
		b.Run(k, func(b *testing.B) {
			useConvolveKernel(b, k)
			run(b, pl.ConvolveRange)
		})
	}
}
