package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"soifft/internal/signal"
)

// useGoKernel routes every convRow to convRowGo and every staged block
// to splitRun's Go loop until the test or benchmark ends, the way a CPU
// without AVX2 does from init. Nothing in this package's tests runs in
// parallel, so the swap is not shared.
func useGoKernel(tb testing.TB) {
	row, split := convRow8, splitBlocks
	convRow8, splitBlocks = nil, nil
	tb.Cleanup(func() { convRow8, splitBlocks = row, split })
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

// fillSlab draws one row's operands: every value random, or (special)
// about one in four replaced by a member of specials.
func fillSlab(rng *rand.Rand, h []float64, x, ph []complex128, special bool) {
	draw := func() float64 {
		if special && rng.Intn(4) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.NormFloat64()
	}
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
		for _, k := range []struct {
			name string
			run  func(out []complex128)
		}{
			{"convRow (" + ConvolveKernel() + ")", func(out []complex128) { convRow(out, h, xs, phs, row.taps, lanes) }},
			{"convRowGo", func(out []complex128) { convRowGo(out, h, xs, phs, lanes) }},
			{"convDotGo", func(out []complex128) { convDotGo(out, h, x, ph, lanes) }},
		} {
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
		useGoKernel(t)
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
// the dispatched kernel and on the Go kernel.
func TestConvolveRangeKernelsBitEqual(t *testing.T) {
	for _, p := range []Params{
		{N: 1 << 14, P: 8, Mu: 5, Nu: 4, B: 72},
		{N: 1 << 13, P: 16, Mu: 5, Nu: 4, B: 31},
		{N: 1 << 12, P: 4, Mu: 5, Nu: 4, B: 24},
	} {
		got := convolveAll(t, p, 3)
		t.Run(fmt.Sprintf("P=%d,B=%d", p.P, p.B), func(t *testing.T) {
			useGoKernel(t)
			want := convolveAll(t, p, 3)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("element %d = %v on the dispatched kernel, Go kernel %v", i, got[i], want[i])
				}
			}
		})
	}
	if convRow8 == nil {
		t.Skipf("kernel %q: both legs ran the Go kernel, the assembly was not compared", ConvolveKernel())
	}
}

// TestConvolveKernelNamesDispatch: the name reports follow the decision
// init made, and that decision follows the build and the CPU.
func TestConvolveKernelNamesDispatch(t *testing.T) {
	want := "go"
	if convRow8 != nil {
		want = "avx2"
	}
	if got := ConvolveKernel(); got != want {
		t.Errorf("ConvolveKernel() = %q with convRow8 set: %v", got, convRow8 != nil)
	}
	if (splitBlocks != nil) != (convRow8 != nil) {
		t.Errorf("dispatch variables disagree: convRow8 set %v, splitBlocks set %v", convRow8 != nil, splitBlocks != nil)
	}
	useGoKernel(t)
	if got := ConvolveKernel(); got != "go" {
		t.Errorf("ConvolveKernel() = %q with no SIMD kernel installed", got)
	}
}

// FuzzConvDotMatchesGo lets the engine pick the shape, the alignment and
// the operand bits.
func FuzzConvDotMatchesGo(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(72), false, false)
	f.Add(int64(2), uint8(2), uint8(71), true, true)
	f.Add(int64(3), uint8(3), uint8(1), true, false)
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
	})
}

// BenchmarkConvolveRange measures the SOI convolution W·x — the "extra"
// arithmetic SOI trades for communication (Section 6 loops a–d) — at the
// paper's shape, one leg per kernel: the one init chose where it is not
// the Go kernel already, and the Go kernel. GF/s is the nominal ConvFlops
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
	if k := ConvolveKernel(); k != "go" {
		b.Run(k, func(b *testing.B) { run(b, pl.ConvolveRange) })
	}
	b.Run("go", func(b *testing.B) {
		useGoKernel(b)
		run(b, pl.ConvolveRange)
	})
}
