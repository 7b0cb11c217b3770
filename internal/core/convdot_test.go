package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"soifft/internal/signal"
)

// useGoKernel routes every convDot to convDotGo until the test or
// benchmark ends, the way a CPU without AVX2 does from init. Nothing in
// this package's tests runs in parallel, so the swap is not shared.
func useGoKernel(tb testing.TB) {
	saved := convBlock8
	convBlock8 = nil
	tb.Cleanup(func() { convBlock8 = saved })
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
// whatever convDot runs for a lane count must return convDotGo's bits.
func TestConvDotMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, lanes := range []int{8, 16, 24, 4, 6, 3} {
		if lanes%8 == 0 && convBlock8 == nil {
			t.Logf("lanes %d: no AVX2 kernel on this host or build (kernel %q), assembly half skipped", lanes, ConvolveKernel())
			continue
		}
		for _, taps := range []int{1, 2, 71, 72, 73} {
			// Offsets 0 and 1 of one allocation: x, ph and out are 16-byte
			// elements, so one of the two is off a 32-byte boundary.
			for off := 0; off < 2; off++ {
				for _, special := range []bool{false, true} {
					n := taps * lanes
					h := make([]float64, off+n)[off:]
					x := make([]complex128, off+n)[off:]
					ph := make([]complex128, off+lanes)[off:]
					fillSlab(rng, h, x, ph, special)
					got := make([]complex128, off+lanes)[off:]
					want := make([]complex128, lanes)
					convDot(got, h, x, ph, taps, lanes)
					convDotGo(want, h, x, ph, lanes)
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("lanes %d taps %d off %d special %v: lane %d = %v, Go kernel %v",
								lanes, taps, off, special, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestConvDotRejectsShortSlab: the seam is the assembly's only bounds
// check, so a window one element short must panic, not compute.
func TestConvDotRejectsShortSlab(t *testing.T) {
	const lanes, taps = 8, 4
	h := make([]float64, taps*lanes)
	ph := make([]complex128, lanes)
	out := make([]complex128, lanes)
	for name, call := range map[string]func(){
		"short x":   func() { convDot(out, h, make([]complex128, taps*lanes-1), ph, taps, lanes) },
		"short out": func() { convDot(out[:lanes-1], h, make([]complex128, taps*lanes), ph, taps, lanes) },
		"short ph":  func() { convDot(out, h, make([]complex128, taps*lanes), ph[:lanes-1], taps, lanes) },
		"short h":   func() { convDot(out, h[:taps*lanes-1], make([]complex128, taps*lanes-1), ph, taps, lanes) },
		"no taps":   func() { convDot(out, nil, nil, ph, 0, lanes) },
		"go kernel": func() { convDotGo(out, h, make([]complex128, taps*lanes-1), ph, lanes) },
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
	if convBlock8 == nil {
		t.Skipf("kernel %q: both legs ran the Go kernel, the assembly was not compared", ConvolveKernel())
	}
}

// TestConvolveKernelNamesDispatch: the name reports follow the decision
// init made, and that decision follows the build and the CPU.
func TestConvolveKernelNamesDispatch(t *testing.T) {
	want := "go"
	if convBlock8 != nil {
		want = "avx2"
	}
	if got := ConvolveKernel(); got != want {
		t.Errorf("ConvolveKernel() = %q with convBlock8 set: %v", got, convBlock8 != nil)
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
		x := make([]complex128, off+nt*lanes)[off:]
		ph := make([]complex128, off+lanes)[off:]
		fillSlab(rng, h, x, ph, special)
		if !special {
			// Raw bit patterns: every exponent, denormals and NaNs included.
			for i := range h {
				h[i] = math.Float64frombits(rng.Uint64())
			}
		}
		got, want := make([]complex128, lanes), make([]complex128, lanes)
		convDot(got, h, x, ph, nt, lanes)
		convDotGo(want, h, x, ph, lanes)
		for i := range want {
			if !sameBits(got[i], want[i]) {
				t.Fatalf("lanes %d taps %d: lane %d = %v, Go kernel %v", lanes, nt, i, got[i], want[i])
			}
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
