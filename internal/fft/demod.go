package fft

import "fmt"

// ForwardDemod computes dst[k] = X[k]·w[k] for k < len(dst), X the
// forward DFT of src: a transform whose output is cut to its first
// len(dst) ≤ n bins and multiplied by a diagonal on the way out, as the
// SOI demodulation wants it. The last Stockham pass stores only those
// bins, already multiplied, so no length-n spectrum is ever written.
// src is overwritten: the passes ping-pong between it and one pooled
// scratch buffer. The bits equal Forward followed by the multiply.
func (p *Plan) ForwardDemod(dst, src, w []complex128) {
	if len(src) != p.n || len(dst) > p.n || len(w) != len(dst) {
		panic(fmt.Sprintf("fft: ForwardDemod: plan length %d, got src %d dst %d w %d", p.n, len(src), len(dst), len(w)))
	}
	y := p.getScratch()
	defer p.putScratch(y)
	k := len(p.stages)
	if p.codelet != nil || p.blue != nil || k == 0 {
		p.Forward(y, src)
		mulInto(dst, y, w)
		return
	}
	x := src
	for i := 0; i < k-1; i++ {
		applyStage(&p.stages[i], x, y)
		x, y = y, x
	}
	lastPassDemod(&p.stages[k-1], x, y, dst, w)
}

// mulInto sets dst[k] = y[k]·w[k].
func mulInto(dst, y, w []complex128) {
	y, w = y[:len(dst)], w[:len(dst)]
	for k := range dst {
		dst[k] = y[k] * w[k]
	}
}

// lastPassDemod runs the last pass of a plan (m = 1: one sub-block, its
// twiddles w^0) from x into dst[k]·w[k], k < len(dst). Radix 5, the last
// radix of every power-of-two segment at β = 1/4, has a fused kernel; any
// other radix runs its ordinary pass into the dead buffer y and
// multiplies after.
func lastPassDemod(st *stage, x, y, dst, w []complex128) {
	if st.radix != 5 {
		applyStage(st, x, y)
		mulInto(dst, y, w)
		return
	}
	// Output k = q + s·u of lane q, frequency u: with n = full·s + part,
	// lanes q < part keep full+1 frequencies and the others full.
	s, n := st.s, len(dst)
	full, part := n/s, n%s
	stageRadix5DemodRange(st, x, dst, w, 0, part, full+1)
	stageRadix5DemodRange(st, x, dst, w, part, s, full)
}

// stageRadix5DemodRange runs lanes [lo, hi) of a last radix-5 pass,
// storing frequencies u < rows: pairs of lanes on the demod5 kernel where
// there is one, an odd lane (or all of them) on the Go kernel. It is the
// only caller of that assembly and touches the last element read and
// written before passing pointers.
func stageRadix5DemodRange(st *stage, x, dst, w []complex128, lo, hi, rows int) {
	if lo >= hi || rows < 1 {
		return
	}
	if pairs := (hi - lo) / 2; demod5 != nil && pairs > 0 {
		s, q := st.s, lo+2*pairs-1
		_ = x[q+4*s]
		_ = dst[q+(rows-1)*s]
		_ = w[q+(rows-1)*s]
		_ = st.tw[3]
		demod5(&x[lo], &dst[lo], &st.tw[0], &w[lo], s, pairs, rows)
		lo = q + 1
	}
	stageRadix5Demod(st, x, dst, w, lo, hi, rows)
}

// stageRadix5Demod is stageRadix5 at m = 1 for lanes [lo, hi), storing
// output u of lane q, times w[q+s·u], at dst[q+s·u] for u < rows only.
// The arithmetic is stageRadix5's to the last rounding, then one complex
// multiply: the assembly twin (demod5) must return these bits.
func stageRadix5Demod(st *stage, x, dst, w []complex128, lo, hi, rows int) {
	s := st.s
	c1, s1, c2, s2 := radix5Consts[0], radix5Consts[1], radix5Consts[2], radix5Consts[3]
	w1, w2, w3, w4 := st.tw[0], st.tw[1], st.tw[2], st.tw[3]
	for q := lo; q < hi; q++ {
		a0, a1, a2, a3, a4 := x[q], x[q+s], x[q+2*s], x[q+3*s], x[q+4*s]
		t1 := a1 + a4
		t2 := a2 + a3
		t3 := a1 - a4
		t4 := a2 - a3
		m1 := a0 + scale(c1, t1) + scale(c2, t2)
		m2 := a0 + scale(c2, t1) + scale(c1, t2)
		u := complex(s1*real(t3)+s2*real(t4), s1*imag(t3)+s2*imag(t4))
		v := complex(s2*real(t3)-s1*real(t4), s2*imag(t3)-s1*imag(t4))
		n1 := complex(imag(u), -real(u))
		n2 := complex(imag(v), -real(v))
		dst[q] = (a0 + t1 + t2) * w[q]
		if rows > 1 {
			dst[q+s] = (m1 + n1) * w1 * w[q+s]
		}
		if rows > 2 {
			dst[q+2*s] = (m2 + n2) * w2 * w[q+2*s]
		}
		if rows > 3 {
			dst[q+3*s] = (m2 - n2) * w3 * w[q+3*s]
		}
		if rows > 4 {
			dst[q+4*s] = (m1 - n1) * w4 * w[q+4*s]
		}
	}
}
