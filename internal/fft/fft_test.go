package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randomVec(n int, seed int64) []complex128 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

func maxAbsErr(a, b []complex128) float64 {
	var m float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func relErr(got, want []complex128) float64 {
	var num, den float64
	for i := range got {
		d := got[i] - want[i]
		num += real(d)*real(d) + imag(d)*imag(d)
		den += real(want[i])*real(want[i]) + imag(want[i])*imag(want[i])
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// Lengths chosen to exercise every kernel: powers of two (radix 4/2),
// 3/5/7-smooth sizes, generic small primes, and Bluestein primes.
var testLengths = []int{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17, 20, 24, 25,
	27, 30, 31, 32, 35, 36, 48, 49, 60, 64, 81, 100, 101, 121, 125, 128,
	135, 144, 169, 210, 211, 240, 243, 256, 257, 343, 360, 512, 625,
	1000, 1009, 1024, 1280, 2048, 2310, 4096,
}

func TestForwardMatchesDirect(t *testing.T) {
	for _, n := range testLengths {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		src := randomVec(n, int64(n))
		want := make([]complex128, n)
		Direct(want, src)
		got := make([]complex128, n)
		p.Forward(got, src)
		tol := 1e-11 * math.Sqrt(float64(n))
		if e := relErr(got, want); e > tol {
			t.Errorf("n=%d: relative error %.3e > %.3e", n, e, tol)
		}
	}
}

// TestExpIPi checks the exactly reduced root: quarter turns come out
// exact, and every other value — negative and many-period arguments
// included — agrees with cmplx.Exp of the argument reduced into [0, 2π)
// within that naive form's own ≈ 2π·ε error.
func TestExpIPi(t *testing.T) {
	for _, den := range []int{1, 2, 3, 4, 5, 8, 12, 1000, 1 << 20} {
		for q, want := range []complex128{1, 1i, -1, -1i} {
			if den%2 == 0 {
				for _, turns := range []int{-3, 0, 5} {
					num := q*den/2 + turns*2*den
					if got := ExpIPi(num, den); got != want {
						t.Errorf("ExpIPi(%d, %d) = %v, want exactly %v", num, den, got, want)
					}
				}
			}
		}
		for num := -5*den - 7; num <= 5*den+7; num += max(1, den/97) {
			red := (num%(2*den) + 2*den) % (2 * den)
			want := cmplx.Exp(complex(0, math.Pi*float64(red)/float64(den)))
			if e := cmplx.Abs(ExpIPi(num, den) - want); e > 8*0x1p-52 {
				t.Errorf("ExpIPi(%d, %d) off by %.3g", num, den, e)
			}
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	for _, n := range testLengths {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		src := randomVec(n, int64(3*n+1))
		freq := make([]complex128, n)
		back := make([]complex128, n)
		p.Forward(freq, src)
		p.Inverse(back, freq)
		if e := maxAbsErr(back, src); e > 1e-10 {
			t.Errorf("n=%d: round-trip error %.3e", n, e)
		}
	}
}

func TestForwardInPlace(t *testing.T) {
	for _, n := range []int{8, 12, 30, 101, 128, 625} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		src := randomVec(n, 7)
		want := make([]complex128, n)
		p.Forward(want, src)
		buf := append([]complex128(nil), src...)
		p.Forward(buf, buf)
		if e := maxAbsErr(buf, want); e > 1e-12 {
			t.Errorf("n=%d: in-place differs from out-of-place by %.3e", n, e)
		}
	}
}

// TestForwardDemodMatchesForward: for every kind of plan — codelet,
// Bluestein, one pass, several passes, a last pass of radix 5 (the
// fused kernel) or another — ForwardDemod returns the bits of Forward
// followed by the multiply, for any kept prefix.
func TestForwardDemodMatchesForward(t *testing.T) {
	for _, n := range []int{1, 5, 8, 12, 25, 40, 101, 128, 640, 96 * 5, 2 * 3 * 7, 163840} {
		p, err := NewPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		src := randomVec(n, int64(n))
		w := randomVec(n, int64(n)+1)
		full := make([]complex128, n)
		p.Forward(full, src)
		for _, keep := range []int{0, 1, n * 4 / 5, n - 1, n} {
			if keep < 0 {
				continue
			}
			got := make([]complex128, keep)
			p.ForwardDemod(got, append([]complex128(nil), src...), w[:keep])
			for k := range got {
				if want := full[k] * w[k]; !sameBits(got[k], want) {
					t.Fatalf("n %d keep %d: dst[%d] = %v, Forward·w %v", n, keep, k, got[k], want)
				}
			}
		}
	}
	p, _ := NewPlan(10)
	for name, call := range map[string]func(){
		"short src": func() { p.ForwardDemod(make([]complex128, 4), make([]complex128, 9), make([]complex128, 4)) },
		"long dst":  func() { p.ForwardDemod(make([]complex128, 11), make([]complex128, 10), make([]complex128, 11)) },
		"short w":   func() { p.ForwardDemod(make([]complex128, 4), make([]complex128, 10), make([]complex128, 3)) },
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

func TestInverseInPlace(t *testing.T) {
	n := 96
	p, _ := NewPlan(n)
	src := randomVec(n, 8)
	want := make([]complex128, n)
	p.Inverse(want, src)
	buf := append([]complex128(nil), src...)
	p.Inverse(buf, buf)
	if e := maxAbsErr(buf, want); e > 1e-12 {
		t.Errorf("in-place inverse differs by %.3e", e)
	}
}

func TestKnownValues(t *testing.T) {
	// DFT of an impulse is all ones.
	p, _ := NewPlan(16)
	x := make([]complex128, 16)
	x[0] = 1
	y := make([]complex128, 16)
	p.Forward(y, x)
	for k, v := range y {
		if cmplx.Abs(v-1) > 1e-14 {
			t.Fatalf("impulse DFT[%d] = %v, want 1", k, v)
		}
	}
	// DFT of exp(+i*2*pi*j*k0/n) is n at bin k0, 0 elsewhere.
	const k0 = 5
	for j := range x {
		x[j] = cmplx.Exp(complex(0, 2*math.Pi*float64(j*k0)/16))
	}
	p.Forward(y, x)
	for k, v := range y {
		want := complex128(0)
		if k == k0 {
			want = 16
		}
		if cmplx.Abs(v-want) > 1e-12 {
			t.Fatalf("tone DFT[%d] = %v, want %v", k, v, want)
		}
	}
}

func TestDCComponent(t *testing.T) {
	for _, n := range []int{4, 15, 49, 101, 210} {
		p, _ := NewPlan(n)
		src := randomVec(n, int64(n)*11)
		var sum complex128
		for _, v := range src {
			sum += v
		}
		y := make([]complex128, n)
		p.Forward(y, src)
		if cmplx.Abs(y[0]-sum) > 1e-11*float64(n) {
			t.Errorf("n=%d: DC bin %v != element sum %v", n, y[0], sum)
		}
	}
}

func TestParseval(t *testing.T) {
	for _, n := range []int{32, 60, 101, 343} {
		p, _ := NewPlan(n)
		src := randomVec(n, int64(n)+100)
		y := make([]complex128, n)
		p.Forward(y, src)
		var et, ef float64
		for i := range src {
			et += real(src[i])*real(src[i]) + imag(src[i])*imag(src[i])
			ef += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
		}
		ef /= float64(n)
		if math.Abs(et-ef) > 1e-9*et {
			t.Errorf("n=%d: Parseval violated: time %.15g freq %.15g", n, et, ef)
		}
	}
}

func TestNewPlanErrors(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d): expected error", n)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	p, _ := NewPlan(8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	p.Forward(make([]complex128, 4), make([]complex128, 8))
}

func TestFactorize(t *testing.T) {
	cases := []struct {
		n    int
		rem  int
		prod int
	}{
		{1, 1, 1}, {2, 1, 2}, {4, 1, 4}, {8, 1, 8}, {360, 1, 360},
		{37 * 8, 37, 8}, {1009, 1009, 1}, {31 * 31, 1, 961},
	}
	for _, c := range cases {
		radices, rem := factorize(c.n)
		prod := 1
		for _, r := range radices {
			prod *= r
		}
		if rem != c.rem || prod != c.prod {
			t.Errorf("factorize(%d) = %v rem %d, want prod %d rem %d",
				c.n, radices, rem, c.prod, c.rem)
		}
		if prod*rem != c.n {
			t.Errorf("factorize(%d): prod*rem = %d", c.n, prod*rem)
		}
	}
}

func TestPlanConcurrentUse(t *testing.T) {
	p, _ := NewPlan(256)
	src := randomVec(256, 42)
	want := make([]complex128, 256)
	p.Forward(want, src)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			got := make([]complex128, 256)
			for i := 0; i < 50; i++ {
				p.Forward(got, src)
			}
			if maxAbsErr(got, want) > 1e-13 {
				done <- errMismatch
				return
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent transform mismatch" }
