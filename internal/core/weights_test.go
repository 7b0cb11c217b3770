package core

// Independent validation of the weight-tensor index algebra: the
// convolution output is recomputed from the paper's definitions alone
// (Definition 1 and the window transform pair), bypassing the tensor.

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"
	"testing"

	"soifft/internal/signal"
	"soifft/internal/window"
)

// convolveByDefinition computes x̃_j = (1/M')·Σ_ℓ w(j/M' − ℓ/N)·x_{ℓ mod N}
// with w(t) = M·e^{iπM(t+t₀)}·H(M(t+t₀)), t₀ = B/(2M), truncated to the
// same B-tap column range the fast path uses.
func convolveByDefinition(pl *Plan, x []complex128, j int) []complex128 {
	p := pl.prm
	m := pl.m
	mp := pl.mp
	n := p.N
	t0 := float64(p.B) / (2 * float64(m))
	out := make([]complex128, p.P)
	g, r := j/p.Mu, j%p.Mu
	sj := g*p.Nu + pl.dstart[r]
	for b := 0; b < p.B; b++ {
		for i := 0; i < p.P; i++ {
			l := (sj+b)*p.P + i
			tArg := float64(j)/float64(mp) - float64(l)/float64(n)
			alpha := float64(m) * (tArg + t0)
			wval := complex(float64(m)*pl.win.HTime(alpha), 0) *
				cmplx.Exp(complex(0, math.Pi*alpha))
			out[i] += wval * x[l%n] / complex(float64(mp), 0)
		}
	}
	return out
}

func TestConvolveRangeMatchesDefinition(t *testing.T) {
	p := Params{N: 480, P: 4, Mu: 5, Nu: 4, B: 24, Win: window.TauSigma{Tau: 0.8, Sigma: 90}}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	x := signal.Random(p.N, 31)
	ext := make([]complex128, p.N+pl.HaloLen())
	copy(ext, x)
	copy(ext[p.N:], x[:pl.HaloLen()])

	fast := make([]complex128, pl.MPrime()*p.P)
	pl.ConvolveRange(fast, ext, 0, pl.MPrime(), 0)

	// Spot-check rows across all μ phases and both block boundaries.
	rows := []int{0, 1, 2, 3, 4, 5, 7, 11, pl.MPrime() / 2, pl.MPrime() - 2, pl.MPrime() - 1}
	for _, j := range rows {
		want := convolveByDefinition(pl, x, j)
		got := fast[j*p.P : (j+1)*p.P]
		for i := range want {
			if d := cmplx.Abs(got[i] - want[i]); d > 1e-13 {
				t.Errorf("row %d lane %d: fast %v definition %v (|Δ|=%.3e)",
					j, i, got[i], want[i], d)
			}
		}
	}
}

func TestWeightTensorGroupInvariance(t *testing.T) {
	// Paper Fig 4: the matrix has only μ·P·B distinct elements — rows
	// j and j+μ must produce identical weights (shifted input).
	p := Params{N: 640, P: 4, Mu: 5, Nu: 4, B: 16}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	// Feed an impulse train so equal weights produce equal outputs:
	// x shifted by ν·P between row groups must reproduce outputs.
	x := signal.Random(p.N, 32)
	ext := make([]complex128, p.N+pl.HaloLen())
	copy(ext, x)
	copy(ext[p.N:], x[:pl.HaloLen()])
	out := make([]complex128, pl.MPrime()*p.P)
	pl.ConvolveRange(out, ext, 0, pl.MPrime(), 0)

	// Build a shifted input: x'(k) = x(k + ν·P); then row j on x' must
	// equal row j+μ on x.
	shift := p.Nu * p.P
	xs := make([]complex128, p.N)
	for k := range xs {
		xs[k] = x[(k+shift)%p.N]
	}
	exts := make([]complex128, p.N+pl.HaloLen())
	copy(exts, xs)
	copy(exts[p.N:], xs[:pl.HaloLen()])
	outs := make([]complex128, pl.MPrime()*p.P)
	pl.ConvolveRange(outs, exts, 0, pl.MPrime(), 0)

	for j := 0; j+p.Mu < pl.MPrime(); j += 7 {
		for i := 0; i < p.P; i++ {
			a := outs[j*p.P+i]
			b := out[(j+p.Mu)*p.P+i]
			if d := cmplx.Abs(a - b); d > 1e-13 {
				t.Errorf("row %d on shifted input != row %d: |Δ|=%.3e", j, j+p.Mu, d)
			}
		}
	}
}

func TestDemodulationUsesWindowSamples(t *testing.T) {
	// invW[k]·ŵ(k) must equal 1: ŵ(k) = e^{iπBk/M}·Ĥ((k−M/2)/M).
	p := Params{N: 512, P: 8, Mu: 5, Nu: 4, B: 32}
	pl, err := NewPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	m := pl.M()
	for k := 0; k < m; k += 5 {
		u := (float64(k) - float64(m)/2) / float64(m)
		what := cmplx.Exp(complex(0, math.Pi*float64(p.B)*float64(k)/float64(m))) *
			complex(pl.win.HHat(u), 0)
		one := pl.invW[k] * what
		if cmplx.Abs(one-1) > 1e-12 {
			t.Errorf("k=%d: invW·ŵ = %v, want 1", k, one)
		}
	}
}

// ratExpIPi returns exp(iπx) for the rational x, reduced with math/big
// alone: x = q/2 + y with q = round(2x), so |y| ≤ 1/4, then y is rounded
// once to float64 for math.Sincos and the q quarter turns are applied
// exactly.
func ratExpIPi(x *big.Rat) complex128 {
	h := new(big.Rat).Add(new(big.Rat).Mul(x, big.NewRat(2, 1)), big.NewRat(1, 2))
	q := new(big.Int).Div(h.Num(), h.Denom()) // floor: Rat denominators are positive
	y, _ := new(big.Rat).Sub(x, new(big.Rat).SetFrac(q, big.NewInt(2))).Float64()
	s, c := math.Sincos(math.Pi * y)
	switch new(big.Int).Mod(q, big.NewInt(4)).Int64() {
	case 1:
		return complex(-s, c)
	case 2:
		return complex(-c, -s)
	case 3:
		return complex(s, -c)
	}
	return complex(c, s)
}

// TestPhaseTablesExact checks every pl.phase and pl.invW entry against
// its phase argument reduced in exact rational arithmetic, over β ∈
// {1/8, 1/4, 1/2, 1}, a P that is not a power of two and B up to 96,
// where the unreduced arguments reach ≈ 300 rad. Both tables must be
// within 2 ulps (2·2⁻⁵²·|want|) of the rational reference.
func TestPhaseTablesExact(t *testing.T) {
	const ulps = 2
	worst := 0.0
	check := func(what string, got, want complex128) {
		e := cmplx.Abs(got-want) / (cmplx.Abs(want) * 0x1p-52)
		worst = math.Max(worst, e)
		if e > ulps {
			t.Errorf("%s = %v, want %v (%.2f ulps)", what, got, want, e)
		}
	}
	for _, mn := range [][2]int{{9, 8}, {5, 4}, {3, 2}, {2, 1}} {
		for _, pp := range []int{6, 16} {
			for _, b := range []int{24, 72, 96} {
				// M = 192 is divisible by every ν and holds B = 96 taps.
				p := Params{N: 192 * pp, P: pp, Mu: mn[0], Nu: mn[1], B: b, Win: window.TauSigma{Tau: 0.8, Sigma: 90}}
				pl, err := NewPlan(p)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < p.Mu; r++ {
					for i := 0; i < p.P; i++ {
						// α + b = r·ν/μ + B/2 − dstart[r] − i/P.
						x := big.NewRat(int64(r*p.Nu), int64(p.Mu))
						x.Add(x, big.NewRat(int64(p.B), 2))
						x.Sub(x, big.NewRat(int64(pl.dstart[r]), 1))
						x.Sub(x, big.NewRat(int64(i), int64(p.P)))
						check(fmt.Sprintf("%+v: phase[r=%d, i=%d]", p, r, i), complex(pl.phase[2*r*p.P+i], pl.phase[2*r*p.P+p.P+i]), ratExpIPi(x))
					}
				}
				m := pl.M()
				for k := 0; k < m; k++ {
					u := (float64(k) - float64(m)/2) / float64(m)
					want := ratExpIPi(big.NewRat(int64(-p.B*k), int64(m))) * complex(1/pl.win.HHat(u), 0)
					check(fmt.Sprintf("%+v: invW[%d]", p, k), pl.invW[k], want)
				}
			}
		}
	}
	t.Logf("worst deviation %.2f ulps", worst)
}

// tapPrec is the working precision of the tap reference: 256 bits and a
// guard, far below any float64 rounding.
const tapPrec = 288

func bigFloat() *big.Float { return new(big.Float).SetPrec(tapPrec) }

var (
	bigPi, _ = bigFloat().SetString("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534211706")
	// sinCoef[k] = (−1)^k/(2k+1)! and expCoef[k] = 1/k!: the Taylor
	// coefficients, truncated where the remainder falls below 2⁻³⁰⁰ on
	// the reduced arguments (|y| ≤ π/2 and z ≤ 2⁻¹², below).
	sinCoef = taylorCoef(40, func(k int) int64 { return int64(-2 * k * (2*k + 1)) })
	expCoef = taylorCoef(22, func(k int) int64 { return int64(k) })
)

// taylorCoef returns c[0] = 1, c[k] = c[k−1]/step(k).
func taylorCoef(n int, step func(k int) int64) []*big.Float {
	c := []*big.Float{bigFloat().SetInt64(1)}
	for k := 1; k < n; k++ {
		c = append(c, bigFloat().Quo(c[k-1], bigFloat().SetInt64(step(k))))
	}
	return c
}

// horner returns Σ c[k]·z^k.
func horner(c []*big.Float, z *big.Float) *big.Float {
	sum, prod := bigFloat().Set(c[len(c)-1]), bigFloat()
	for k := len(c) - 2; k >= 0; k-- {
		sum.Add(prod.Mul(sum, z), c[k]) // unaliased: no mantissa per step
	}
	return sum
}

// bigSinPi returns sin(π·x) for the rational x, reduced modulo 2 exactly
// and folded to |x| ≤ 1/2 by sin(π·x) = sin(π·(±1 − x)).
func bigSinPi(x *big.Rat) *big.Float {
	half := new(big.Rat).Add(new(big.Rat).Quo(x, big.NewRat(2, 1)), big.NewRat(1, 2))
	k := new(big.Int).Div(half.Num(), half.Denom()) // round(x/2)
	x = new(big.Rat).Sub(x, new(big.Rat).SetInt(k.Lsh(k, 1)))
	if x.Cmp(big.NewRat(1, 2)) > 0 {
		x.Sub(big.NewRat(1, 1), x)
	} else if x.Cmp(big.NewRat(-1, 2)) < 0 {
		x.Sub(big.NewRat(-1, 1), x)
	}
	y := bigFloat().Mul(bigFloat().SetRat(x), bigPi)
	s := horner(sinCoef, bigFloat().Mul(y, y))
	return s.Mul(s, y)
}

// bigExp returns exp(y) for |y| < 2⁸: the Taylor sum at y/2²⁰, squared
// twenty times.
func bigExp(y *big.Float) *big.Float {
	e := horner(expCoef, bigFloat().SetMantExp(y, -20))
	for i := 0; i < 20; i++ {
		e.Mul(e, e)
	}
	return e
}

// tauSigmaRow returns H(α₀ − b) for b ∈ [0, n), H(α) = sinc(τα)·√(π/σ)·
// exp(−cα²), c = π²/σ, at the rational α₀: each sine from its own exactly
// reduced argument, the Gaussian by the recurrence
// exp(−c(α−1)²) = exp(−cα²)·q, q = exp(c(2α−1)), q shrinking by exp(−2c)
// a step.
func tauSigmaRow(w window.TauSigma, alpha0 *big.Rat, n int) []*big.Float {
	sigma := bigFloat().SetFloat64(w.Sigma)
	c := bigFloat().Quo(bigFloat().Mul(bigPi, bigPi), sigma)
	a0 := bigFloat().SetRat(alpha0)
	g := bigExp(bigFloat().Neg(bigFloat().Mul(c, bigFloat().Mul(a0, a0))))
	q := bigExp(bigFloat().Mul(c, bigFloat().Sub(bigFloat().Mul(a0, bigFloat().SetInt64(2)), bigFloat().SetInt64(1))))
	step := bigExp(bigFloat().Mul(c, bigFloat().SetInt64(-2)))
	h0 := bigFloat().Sqrt(bigFloat().Quo(bigPi, sigma))
	tau := new(big.Rat).SetFloat64(w.Tau)
	out := make([]*big.Float, n)
	for b := range out {
		alpha := new(big.Rat).Sub(alpha0, big.NewRat(int64(b), 1))
		h := bigFloat().Mul(h0, g)
		if alpha.Sign() != 0 {
			ta := new(big.Rat).Mul(tau, alpha)
			h.Mul(h, bigSinPi(ta))
			h.Quo(h, bigFloat().Mul(bigPi, bigFloat().SetRat(ta)))
		}
		out[b] = h
		g.Mul(g, q)
		q.Mul(q, step)
	}
	return out
}

// TestTapTableExact checks every pl.hre entry, (−1)^b·(ν/μ)·H(α), against
// a 256-bit reference that keeps α = r·ν/μ + B/2 − dstart[r] − b − i/P
// exact, over TestPhaseTablesExact's grid with the designed windows.
// Every tap must be within 4·ε·(ν/μ)·H(0). Forming α in floating point
// leaves up to ≈ ulp(B/2) of absolute error where B/2 and b cancel, which
// moves the steepest taps by ≈ 20·ε·H(0).
func TestTapTableExact(t *testing.T) {
	if raceEnabled {
		t.Skip("256-bit reference over the grid is too slow under -race")
	}
	const eps, tol = 0x1p-52, 4
	worst := 0.0
	for _, mn := range [][2]int{{9, 8}, {5, 4}, {3, 2}, {2, 1}} {
		for _, pp := range []int{6, 16} {
			for _, b := range []int{24, 72, 96} {
				p := Params{N: 192 * pp, P: pp, Mu: mn[0], Nu: mn[1], B: b}
				pl, err := NewPlan(p)
				if err != nil {
					t.Fatal(err)
				}
				w, ok := pl.win.(window.TauSigma)
				if !ok {
					t.Fatalf("%+v: designed window %v is not τσ", p, pl.win)
				}
				scale := bigFloat().SetRat(big.NewRat(int64(p.Nu), int64(p.Mu)))
				unit := float64(p.Nu) / float64(p.Mu) * w.HTime(0) * eps
				for r := 0; r < p.Mu; r++ {
					for i := 0; i < p.P; i++ {
						alpha0 := big.NewRat(int64(r*p.Nu), int64(p.Mu))
						alpha0.Add(alpha0, big.NewRat(int64(p.B), 2))
						alpha0.Sub(alpha0, big.NewRat(int64(pl.dstart[r]), 1))
						alpha0.Sub(alpha0, big.NewRat(int64(i), int64(p.P)))
						for bb, ref := range tauSigmaRow(w, alpha0, p.B) {
							ref.Mul(ref, scale)
							if bb&1 == 1 {
								ref.Neg(ref)
							}
							want, _ := ref.Float64()
							got := pl.hre[(r*p.B+bb)*p.P+i]
							e := math.Abs(got-want) / unit
							worst = math.Max(worst, e)
							if e > tol {
								t.Errorf("%+v: hre[r=%d, b=%d, i=%d] = %.17g, want %.17g (%.2f ε·H(0))", p, r, bb, i, got, want, e)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("worst deviation %.2f ε·H(0)", worst)
}
