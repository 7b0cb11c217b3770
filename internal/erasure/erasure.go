// Package erasure is a systematic Reed–Solomon k-of-n erasure codec
// over GF(2^8), the redundancy layer of the coded all-to-all exchange
// (internal/core's RunDistributed with WithCoding). A Code splits a
// payload into k equal-length data shares and derives m parity shares;
// any k of the k+m shares reconstruct every data share byte-for-byte.
//
// The codec operates on raw bytes. For the SOI exchange the shares are
// the byte images of []complex128 chunks (ComplexToBytes/BytesToComplex
// move the exact Float64bits patterns), so a reconstructed chunk is
// bit-identical to the lost original — the degraded spectrum equals the
// fault-free spectrum exactly, not approximately. This is why the code
// works over GF(2^8) rather than the reals: real-field erasure codes
// (Vandermonde over float64) would reconstruct only up to rounding.
//
// Construction: the k×k identity stacked on an m×k Cauchy matrix whose
// columns are scaled so parity row 0 is all ones (share 0 is the XOR of
// the data). Every square submatrix of a Cauchy matrix is nonsingular and
// scaling a column keeps it so: any k shares decode, which the recovery
// protocol relies on when it pools what survived a rank death.
package erasure

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Typed failures, matchable with errors.Is.
var (
	// ErrParams reports an impossible code shape (k < 1, m < 0, or
	// k+m > 256 — GF(2^8) has only 256 distinct evaluation points).
	ErrParams = errors.New("erasure: invalid code parameters")
	// ErrShardCount reports a share slice whose length is not k (Encode
	// data), m (Encode parity) or k+m (Reconstruct).
	ErrShardCount = errors.New("erasure: wrong number of shares")
	// ErrShardSize reports shares of inconsistent byte lengths.
	ErrShardSize = errors.New("erasure: share length mismatch")
	// ErrTooFewShares reports a reconstruction attempt with fewer than k
	// surviving shares — the loss exceeded the parity budget.
	ErrTooFewShares = errors.New("erasure: fewer than k shares survive")
)

// GF(2^8) arithmetic with the AES-adjacent primitive polynomial 0x11d
// (x^8+x^4+x^3+x^2+1), via log/exp tables. exp is doubled so products
// of logs never need a modulo.
var (
	expTbl [510]byte
	logTbl [256]byte
)

func init() {
	x := 1
	for i := 0; i < 255; i++ {
		expTbl[i] = byte(x)
		expTbl[i+255] = byte(x)
		logTbl[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
}

// gmul multiplies in GF(2^8).
func gmul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTbl[int(logTbl[a])+int(logTbl[b])]
}

// ginv inverts a nonzero element.
func ginv(a byte) byte {
	if a == 0 {
		panic("erasure: inverse of zero")
	}
	return expTbl[255-int(logTbl[a])]
}

// mulTable fills t with the 256 products c·v, v = 0..255: the lookup row
// the Encode and Reconstruct loops index with each source byte.
func mulTable(t *[256]byte, c byte) {
	for v := range t {
		t[v] = gmul(c, byte(v))
	}
}

// mulAdd xors c·src into out byte-wise, c given by its product row, eight
// bytes per step — at c = 1 a plain XOR, four words per step.
func mulAdd(out, src []byte, tbl *[256]byte) {
	out = out[:len(src)]
	n := 0
	if tbl[1] == 1 {
		for ; n+32 <= len(src); n += 32 {
			o, s := out[n:n+32], src[n:n+32]
			binary.LittleEndian.PutUint64(o, binary.LittleEndian.Uint64(o)^binary.LittleEndian.Uint64(s))
			binary.LittleEndian.PutUint64(o[8:], binary.LittleEndian.Uint64(o[8:])^binary.LittleEndian.Uint64(s[8:]))
			binary.LittleEndian.PutUint64(o[16:], binary.LittleEndian.Uint64(o[16:])^binary.LittleEndian.Uint64(s[16:]))
			binary.LittleEndian.PutUint64(o[24:], binary.LittleEndian.Uint64(o[24:])^binary.LittleEndian.Uint64(s[24:]))
		}
	} else {
		for ; n+8 <= len(src); n += 8 {
			s := binary.LittleEndian.Uint64(src[n:])
			p := uint64(tbl[byte(s)]) | uint64(tbl[byte(s>>8)])<<8 |
				uint64(tbl[byte(s>>16)])<<16 | uint64(tbl[byte(s>>24)])<<24 |
				uint64(tbl[byte(s>>32)])<<32 | uint64(tbl[byte(s>>40)])<<40 |
				uint64(tbl[byte(s>>48)])<<48 | uint64(tbl[byte(s>>56)])<<56
			binary.LittleEndian.PutUint64(out[n:], binary.LittleEndian.Uint64(out[n:])^p)
		}
	}
	for b := n; b < len(src); b++ {
		out[b] ^= tbl[src[b]]
	}
}

// Code is a systematic (k+m, k) Reed–Solomon code. It is immutable and
// safe for concurrent use.
type Code struct {
	k, m int
	// gen holds the m parity rows of the generator (the top k rows are
	// the identity and are never materialized): parity share i is
	// Σ_j gen[i][j]·data[j] in GF(2^8), applied byte-wise.
	gen [][]byte
	// tbl[i·k+j] is the product row of gen[i][j].
	tbl [][256]byte
}

// New builds a code with k data shares and m parity shares. k must be
// at least 1, m at least 0, and k+m at most 256.
func New(k, m int) (*Code, error) {
	if k < 1 || m < 0 || k+m > 256 {
		return nil, fmt.Errorf("%w: k=%d m=%d", ErrParams, k, m)
	}
	c := &Code{k: k, m: m, gen: make([][]byte, m), tbl: make([][256]byte, m*k)}
	// Cauchy rows: gen[i][j] = 1/(x_i ⊕ y_j) with x_i = k+i, y_j = j,
	// then column j scaled by 1/gen[0][j] = x_0 ⊕ y_j, so row 0 is all
	// ones (see the package doc for why the code stays MDS).
	for i := 0; i < m; i++ {
		row := make([]byte, k)
		for j := 0; j < k; j++ {
			row[j] = gmul(ginv(byte(k+i)^byte(j)), byte(k)^byte(j))
			mulTable(&c.tbl[i*k+j], row[j])
		}
		c.gen[i] = row
	}
	return c, nil
}

// M returns the parity share count.
func (c *Code) M() int { return c.m }

// Encode fills the m parity shares from the k data shares. All data
// shares must have equal length; each parity slice must be pre-allocated
// to that same length (they are overwritten, not appended).
func (c *Code) Encode(data, parity [][]byte) error {
	if len(data) != c.k {
		return fmt.Errorf("%w: %d data shares, code has k=%d", ErrShardCount, len(data), c.k)
	}
	if len(parity) != c.m {
		return fmt.Errorf("%w: %d parity shares, code has m=%d", ErrShardCount, len(parity), c.m)
	}
	size := -1
	for _, d := range data {
		if size == -1 {
			size = len(d)
		} else if len(d) != size {
			return fmt.Errorf("%w: data shares of %d and %d bytes", ErrShardSize, size, len(d))
		}
	}
	for _, p := range parity {
		if len(p) != size {
			return fmt.Errorf("%w: parity share of %d bytes, data shares of %d", ErrShardSize, len(p), size)
		}
	}
	for i, out := range parity {
		clear(out)
		for j, src := range data {
			c.MulAdd(i, j, out, src)
		}
	}
	return nil
}

// MulAdd xors data share j's term of parity share i, gen[i][j]·src, into
// out: Encode's step, for a caller folding data in a piece at a time.
func (c *Code) MulAdd(i, j int, out, src []byte) { mulAdd(out, src, &c.tbl[i*c.k+j]) }

// Reconstruct rebuilds the missing data shares in place. shares must
// have length k+m, indexed share order (data 0..k-1, parity k..k+m-1);
// nil entries are the erasures. On success every data entry (index < k)
// is non-nil and bit-identical to the original; surviving parity
// entries are left untouched and missing parity is not regenerated.
// With fewer than k surviving shares it returns ErrTooFewShares.
func (c *Code) Reconstruct(shares [][]byte) error {
	if len(shares) != c.k+c.m {
		return fmt.Errorf("%w: %d shares, code has n=%d", ErrShardCount, len(shares), c.k+c.m)
	}
	size := -1
	present := make([]int, 0, c.k)
	missing := make([]int, 0, c.k)
	for idx, s := range shares {
		if s == nil {
			if idx < c.k {
				missing = append(missing, idx)
			}
			continue
		}
		if size == -1 {
			size = len(s)
		} else if len(s) != size {
			return fmt.Errorf("%w: shares of %d and %d bytes", ErrShardSize, size, len(s))
		}
		if len(present) < c.k {
			present = append(present, idx)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if len(present) < c.k {
		return fmt.Errorf("%w: %d of %d needed", ErrTooFewShares, len(present), c.k)
	}
	// Solve A·data = s for the chosen k survivors: A's row for a data
	// share is a unit row, for a parity share the Cauchy row. Any such
	// A is invertible (MDS), so inversion failing is a codec bug.
	a := make([][]byte, c.k)
	for r, idx := range present {
		row := make([]byte, c.k)
		if idx < c.k {
			row[idx] = 1
		} else {
			copy(row, c.gen[idx-c.k])
		}
		a[r] = row
	}
	inv, err := invertMatrix(a)
	if err != nil {
		return err
	}
	// Missing data share j is row j of inv times the survivor vector.
	var tbl [256]byte
	for _, j := range missing {
		out := make([]byte, size)
		for t, idx := range present {
			mulTable(&tbl, inv[j][t])
			mulAdd(out, shares[idx], &tbl)
		}
		shares[j] = out
	}
	return nil
}

// invertMatrix inverts a k×k matrix over GF(2^8) by Gauss–Jordan
// elimination (the matrix is clobbered).
func invertMatrix(a [][]byte) ([][]byte, error) {
	k := len(a)
	inv := make([][]byte, k)
	for i := range inv {
		inv[i] = make([]byte, k)
		inv[i][i] = 1
	}
	for col := 0; col < k; col++ {
		// Pivot: find a row at or below col with a nonzero entry.
		pivot := -1
		for r := col; r < k; r++ {
			if a[r][col] != 0 {
				pivot = r
				break
			}
		}
		if pivot == -1 {
			return nil, fmt.Errorf("%w: singular decode matrix (codec bug)", ErrTooFewShares)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]
		// Scale the pivot row to 1.
		if p := a[col][col]; p != 1 {
			pi := ginv(p)
			for j := 0; j < k; j++ {
				a[col][j] = gmul(a[col][j], pi)
				inv[col][j] = gmul(inv[col][j], pi)
			}
		}
		// Eliminate the column everywhere else.
		for r := 0; r < k; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := 0; j < k; j++ {
				a[r][j] ^= gmul(f, a[col][j])
				inv[r][j] ^= gmul(f, inv[col][j])
			}
		}
	}
	return inv, nil
}

// ComplexToBytes appends the little-endian Float64bits image of src to
// dst and returns it (16 bytes per element, real then imaginary). The
// mapping is bijective on bit patterns — NaN payloads and signed zeros
// survive — so encode→decode over any channel that preserves bytes is
// the identity on complex128 values.
func ComplexToBytes(dst []byte, src []complex128) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, 16*len(src))...)
	for k, v := range src {
		binary.LittleEndian.PutUint64(dst[n+16*k:], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(dst[n+16*k+8:], math.Float64bits(imag(v)))
	}
	return dst
}

// BytesToComplex is the inverse of ComplexToBytes. len(src) must be a
// multiple of 16; the result holds len(src)/16 elements.
func BytesToComplex(dst []complex128, src []byte) ([]complex128, error) {
	if len(src)%16 != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not a whole number of complex128", ErrShardSize, len(src))
	}
	n := len(dst)
	dst = append(dst, make([]complex128, len(src)/16)...)
	for k := range dst[n:] {
		dst[n+k] = complex(math.Float64frombits(binary.LittleEndian.Uint64(src[16*k:])),
			math.Float64frombits(binary.LittleEndian.Uint64(src[16*k+8:])))
	}
	return dst, nil
}
