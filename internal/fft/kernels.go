package fft

import "math"

// The stage kernels implement one decimation-in-frequency Stockham pass.
// Input element (lane q, block p, component t) is read from
// x[q + s*(p + m*t)] and output (lane q, block p, frequency u) is written
// to y[q + s*(radix*p + u)], multiplied by the stage twiddle w^(p*u).
//
// stageRadix8, stageRadix8S1, stageRadix5 and stageRadix4 (and codelet8)
// have assembly twins in kernels_amd64.s that must return their bits: any
// change to the order or association of the arithmetic below has to be
// mirrored there, or the bit-identity tables in simd_test.go fail.

// scale multiplies z by the real c with two multiplies. It is not
// written complex(c, 0)*z: that is a full complex multiply whose 0·im
// and 0·re terms cost two more multiplies and two adds for the same bits
// on finite non-zero data (the two forms differ only in the sign of an
// exact zero and where 0·Inf makes a NaN), and the assembly needs one
// definition to match.
func scale(c float64, z complex128) complex128 {
	return complex(c*real(z), c*imag(z))
}

func stageRadix2(st *stage, x, y []complex128, lo, hi int) {
	m, s := st.m, st.s
	for p := lo; p < hi; p++ {
		w1 := st.tw[p]
		x0 := x[s*p:]
		x1 := x[s*(p+m):]
		yp := y[s*2*p:]
		for q := 0; q < s; q++ {
			a, b := x0[q], x1[q]
			yp[q] = a + b
			yp[q+s] = (a - b) * w1
		}
	}
}

func stageRadix3(st *stage, x, y []complex128, lo, hi int) {
	m, s := st.m, st.s
	const half = 0.5
	sin3 := math.Sqrt(3) / 2
	for p := lo; p < hi; p++ {
		w1 := st.tw[p*2]
		w2 := st.tw[p*2+1]
		x0 := x[s*p:]
		x1 := x[s*(p+m):]
		x2 := x[s*(p+2*m):]
		yp := y[s*3*p:]
		for q := 0; q < s; q++ {
			a, b, c := x0[q], x1[q], x2[q]
			t1 := b + c
			t2 := a - scale(half, t1)
			// t3 = -i*sin3*(b-c) for the forward (negative exponent) sign.
			d := b - c
			t3 := complex(sin3*imag(d), -sin3*real(d))
			yp[q] = a + t1
			yp[q+s] = (t2 + t3) * w1
			yp[q+2*s] = (t2 - t3) * w2
		}
	}
}

func stageRadix4(st *stage, x, y []complex128, lo, hi int) {
	m, s := st.m, st.s
	for p := lo; p < hi; p++ {
		w1 := st.tw[p*3]
		w2 := st.tw[p*3+1]
		w3 := st.tw[p*3+2]
		x0 := x[s*p:]
		x1 := x[s*(p+m):]
		x2 := x[s*(p+2*m):]
		x3 := x[s*(p+3*m):]
		yp := y[s*4*p:]
		for q := 0; q < s; q++ {
			a, b, c, d := x0[q], x1[q], x2[q], x3[q]
			t0 := a + c
			t1 := a - c
			t2 := b + d
			// t3 = -i*(b-d) for the forward sign.
			bd := b - d
			t3 := complex(imag(bd), -real(bd))
			yp[q] = t0 + t2
			yp[q+s] = (t1 + t3) * w1
			yp[q+2*s] = (t0 - t2) * w2
			yp[q+3*s] = (t1 - t3) * w3
		}
	}
}

// radix5Consts holds cos and sin of 2πk/5 for k = 1, 2 as {c1, s1, c2,
// s2}. stageRadix5 and its assembly twin both read them here, so the two
// multiply by the same bits whatever math.Cos returns on the platform.
var radix5Consts = [4]float64{
	math.Cos(2 * math.Pi / 5), math.Sin(2 * math.Pi / 5),
	math.Cos(4 * math.Pi / 5), math.Sin(4 * math.Pi / 5),
}

func stageRadix5(st *stage, x, y []complex128, lo, hi int) {
	m, s := st.m, st.s
	c1, s1, c2, s2 := radix5Consts[0], radix5Consts[1], radix5Consts[2], radix5Consts[3]
	for p := lo; p < hi; p++ {
		w1 := st.tw[p*4]
		w2 := st.tw[p*4+1]
		w3 := st.tw[p*4+2]
		w4 := st.tw[p*4+3]
		x0 := x[s*p:]
		x1 := x[s*(p+m):]
		x2 := x[s*(p+2*m):]
		x3 := x[s*(p+3*m):]
		x4 := x[s*(p+4*m):]
		yp := y[s*5*p:]
		for q := 0; q < s; q++ {
			a0, a1, a2, a3, a4 := x0[q], x1[q], x2[q], x3[q], x4[q]
			t1 := a1 + a4
			t2 := a2 + a3
			t3 := a1 - a4
			t4 := a2 - a3
			m1 := a0 + scale(c1, t1) + scale(c2, t2)
			m2 := a0 + scale(c2, t1) + scale(c1, t2)
			// n1 = -i*(s1*t3 + s2*t4), n2 = -i*(s2*t3 - s1*t4)
			u := complex(s1*real(t3)+s2*real(t4), s1*imag(t3)+s2*imag(t4))
			v := complex(s2*real(t3)-s1*real(t4), s2*imag(t3)-s1*imag(t4))
			n1 := complex(imag(u), -real(u))
			n2 := complex(imag(v), -real(v))
			yp[q] = a0 + t1 + t2
			yp[q+s] = (m1 + n1) * w1
			yp[q+2*s] = (m2 + n2) * w2
			yp[q+3*s] = (m2 - n2) * w3
			yp[q+4*s] = (m1 - n1) * w4
		}
	}
}

func stageRadix8(st *stage, x, y []complex128, lo, hi int) {
	m, s := st.m, st.s
	const rt = 0.7071067811865476 // √2/2
	for p := lo; p < hi; p++ {
		tw := st.tw[p*7 : p*7+7]
		var xi [8][]complex128
		for t := 0; t < 8; t++ {
			xi[t] = x[s*(p+t*m):]
		}
		yp := y[s*8*p:]
		for q := 0; q < s; q++ {
			a0, a1, a2, a3 := xi[0][q], xi[1][q], xi[2][q], xi[3][q]
			a4, a5, a6, a7 := xi[4][q], xi[5][q], xi[6][q], xi[7][q]
			// Even half: radix-4 on a_t + a_{t+4}.
			b0, b1, b2, b3 := a0+a4, a1+a5, a2+a6, a3+a7
			c0, c1 := b0+b2, b0-b2
			c2 := b1 + b3
			d := b1 - b3
			c3 := complex(imag(d), -real(d)) // -i·(b1-b3)
			// Odd half: radix-4 on (a_t − a_{t+4})·ω8^t.
			d0 := a0 - a4
			t1 := a1 - a5
			d1 := complex(rt*(real(t1)+imag(t1)), rt*(imag(t1)-real(t1))) // ·ω8
			t2 := a2 - a6
			d2 := complex(imag(t2), -real(t2)) // ·(−i)
			t3 := a3 - a7
			d3 := complex(rt*(imag(t3)-real(t3)), -rt*(real(t3)+imag(t3))) // ·ω8³
			e0, e1 := d0+d2, d0-d2
			e2 := d1 + d3
			ed := d1 - d3
			e3 := complex(imag(ed), -real(ed))
			yp[q] = c0 + c2
			yp[q+s] = (e0 + e2) * tw[0]
			yp[q+2*s] = (c1 + c3) * tw[1]
			yp[q+3*s] = (e1 + e3) * tw[2]
			yp[q+4*s] = (c0 - c2) * tw[3]
			yp[q+5*s] = (e0 - e2) * tw[4]
			yp[q+6*s] = (c1 - c3) * tw[5]
			yp[q+7*s] = (e1 - e3) * tw[6]
		}
	}
}

// stageRadix2S1 is the stride-1 (first pass) radix-2 kernel: the lane
// loop collapses to one iteration, so inputs are read m-strided directly.
func stageRadix2S1(st *stage, x, y []complex128, lo, hi int) {
	m := st.m
	for p := lo; p < hi; p++ {
		a, b := x[p], x[p+m]
		y[2*p] = a + b
		y[2*p+1] = (a - b) * st.tw[p]
	}
}

// stageRadix4S1 is the stride-1 radix-4 kernel.
func stageRadix4S1(st *stage, x, y []complex128, lo, hi int) {
	m := st.m
	for p := lo; p < hi; p++ {
		a, b, c, d := x[p], x[p+m], x[p+2*m], x[p+3*m]
		t0 := a + c
		t1 := a - c
		t2 := b + d
		bd := b - d
		t3 := complex(imag(bd), -real(bd)) // -i·(b-d), forward sign
		tw := st.tw[p*3 : p*3+3]
		yp := y[4*p : 4*p+4]
		yp[0] = t0 + t2
		yp[1] = (t1 + t3) * tw[0]
		yp[2] = (t0 - t2) * tw[1]
		yp[3] = (t1 - t3) * tw[2]
	}
}

// stageRadix8S1 is the stride-1 radix-8 kernel.
func stageRadix8S1(st *stage, x, y []complex128, lo, hi int) {
	m := st.m
	const rt = 0.7071067811865476 // √2/2
	for p := lo; p < hi; p++ {
		a0, a1, a2, a3 := x[p], x[p+m], x[p+2*m], x[p+3*m]
		a4, a5, a6, a7 := x[p+4*m], x[p+5*m], x[p+6*m], x[p+7*m]
		// Even half: radix-4 on a_t + a_{t+4}.
		b0, b1, b2, b3 := a0+a4, a1+a5, a2+a6, a3+a7
		c0, c1 := b0+b2, b0-b2
		c2 := b1 + b3
		d := b1 - b3
		c3 := complex(imag(d), -real(d)) // -i·(b1-b3)
		// Odd half: radix-4 on (a_t − a_{t+4})·ω8^t.
		d0 := a0 - a4
		t1 := a1 - a5
		d1 := complex(rt*(real(t1)+imag(t1)), rt*(imag(t1)-real(t1))) // ·ω8
		t2 := a2 - a6
		d2 := complex(imag(t2), -real(t2)) // ·(−i)
		t3 := a3 - a7
		d3 := complex(rt*(imag(t3)-real(t3)), -rt*(real(t3)+imag(t3))) // ·ω8³
		e0, e1 := d0+d2, d0-d2
		e2 := d1 + d3
		ed := d1 - d3
		e3 := complex(imag(ed), -real(ed))
		tw := st.tw[p*7 : p*7+7]
		yp := y[8*p : 8*p+8]
		yp[0] = c0 + c2
		yp[1] = (e0 + e2) * tw[0]
		yp[2] = (c1 + c3) * tw[1]
		yp[3] = (e1 + e3) * tw[2]
		yp[4] = (c0 - c2) * tw[3]
		yp[5] = (e0 - e2) * tw[4]
		yp[6] = (c1 - c3) * tw[5]
		yp[7] = (e1 - e3) * tw[6]
	}
}

// stageGeneric handles any radix with an O(radix^2) butterfly using the
// precomputed radix-point roots. It is used for small primes 7..31.
// The lane buffer lives on the stack (radix ≤ maxSmallPrime), keeping
// the pass allocation-free.
func stageGeneric(st *stage, x, y []complex128, lo, hi int) {
	r, m, s := st.radix, st.m, st.s
	var lanes [maxSmallPrime]complex128
	var a []complex128
	if r <= maxSmallPrime {
		a = lanes[:r]
	} else { // custom stage lists may use larger composite radices
		a = make([]complex128, r)
	}
	for p := lo; p < hi; p++ {
		for q := 0; q < s; q++ {
			for t := 0; t < r; t++ {
				a[t] = x[q+s*(p+m*t)]
			}
			base := q + s*r*p
			// u = 0: plain sum, no twiddle.
			sum := a[0]
			for t := 1; t < r; t++ {
				sum += a[t]
			}
			y[base] = sum
			for u := 1; u < r; u++ {
				acc := a[0]
				idx := 0
				for t := 1; t < r; t++ {
					idx += u
					if idx >= r {
						idx -= r
					}
					acc += a[t] * st.wr[idx]
				}
				y[base+s*u] = acc * st.tw[p*(r-1)+u-1]
			}
		}
	}
}
