package erasure

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

func randomShares(rng *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		rng.Read(data[i])
	}
	return data
}

func encodeAll(t *testing.T, c *Code, data [][]byte, size int) [][]byte {
	t.Helper()
	parity := make([][]byte, c.M())
	for i := range parity {
		parity[i] = make([]byte, size)
	}
	if err := c.Encode(data, parity); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return parity
}

// TestGFArithmetic pins the field axioms the tables must satisfy.
func TestGFArithmetic(t *testing.T) {
	for a := 1; a < 256; a++ {
		if got := gmul(byte(a), ginv(byte(a))); got != 1 {
			t.Fatalf("a·a⁻¹ = %d for a=%d", got, a)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b, c := byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))
		if gmul(a, b) != gmul(b, a) {
			t.Fatalf("gmul not commutative at %d,%d", a, b)
		}
		if gmul(a, gmul(b, c)) != gmul(gmul(a, b), c) {
			t.Fatalf("gmul not associative at %d,%d,%d", a, b, c)
		}
		if gmul(a, b^c) != gmul(a, b)^gmul(a, c) {
			t.Fatalf("gmul not distributive at %d,%d,%d", a, b, c)
		}
	}
}

// TestMulTableMatchesGmul: every one of the 65,536 table products is the
// log/exp product.
func TestMulTableMatchesGmul(t *testing.T) {
	var tbl [256]byte
	for c := 0; c < 256; c++ {
		mulTable(&tbl, byte(c))
		for v := 0; v < 256; v++ {
			if tbl[v] != gmul(byte(c), byte(v)) {
				t.Fatalf("table %d·%d = %d, gmul says %d", c, v, tbl[v], gmul(byte(c), byte(v)))
			}
		}
	}
}

// encodeGmul and reconstructGmul are the byte-at-a-time log/exp loops the
// table-driven Encode and Reconstruct replaced, kept as their reference.
func encodeGmul(c *Code, data, parity [][]byte) {
	for i := 0; i < c.m; i++ {
		out := parity[i]
		for b := range out {
			out[b] = 0
		}
		for j := 0; j < c.k; j++ {
			g := c.gen[i][j]
			if g == 0 {
				continue
			}
			for b, v := range data[j] {
				out[b] ^= gmul(g, v)
			}
		}
	}
}

func reconstructGmul(t *testing.T, c *Code, shares [][]byte) {
	t.Helper()
	var present, missing []int
	size := 0
	for idx, s := range shares {
		switch {
		case s == nil && idx < c.k:
			missing = append(missing, idx)
		case s != nil && len(present) < c.k:
			present = append(present, idx)
			size = len(s)
		}
	}
	a := make([][]byte, c.k)
	for r, idx := range present {
		a[r] = make([]byte, c.k)
		if idx < c.k {
			a[r][idx] = 1
		} else {
			copy(a[r], c.gen[idx-c.k])
		}
	}
	inv, err := invertMatrix(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range missing {
		out := make([]byte, size)
		for s := 0; s < c.k; s++ {
			g := inv[j][s]
			if g == 0 {
				continue
			}
			for b, v := range shares[present[s]] {
				out[b] ^= gmul(g, v)
			}
		}
		shares[j] = out
	}
}

// TestTableCodecMatchesGmulLoops: over random shapes and erasure
// patterns, Encode and Reconstruct produce exactly the reference loops'
// bytes.
func TestTableCodecMatchesGmulLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		k, m, size := 1+rng.Intn(12), rng.Intn(5), rng.Intn(300)
		c, err := New(k, m)
		if err != nil {
			t.Fatal(err)
		}
		data := randomShares(rng, k, size)
		parity := encodeAll(t, c, data, size)
		want := make([][]byte, m)
		for i := range want {
			want[i] = make([]byte, size)
		}
		encodeGmul(c, data, want)
		for i := range want {
			if !bytes.Equal(parity[i], want[i]) {
				t.Fatalf("k=%d m=%d size=%d: parity %d differs from the gmul loop", k, m, size, i)
			}
		}
		got := append(append([][]byte(nil), data...), parity...)
		for _, idx := range rng.Perm(k + m)[:rng.Intn(m+1)] {
			got[idx] = nil
		}
		ref := append([][]byte(nil), got...)
		if err := c.Reconstruct(got); err != nil {
			t.Fatal(err)
		}
		reconstructGmul(t, c, ref)
		for i := 0; i < k; i++ {
			if !bytes.Equal(got[i], ref[i]) || !bytes.Equal(got[i], data[i]) {
				t.Fatalf("k=%d m=%d size=%d: share %d differs from the gmul loop", k, m, size, i)
			}
		}
	}
}

// TestReconstructEveryErasurePattern exhausts all erasure patterns of
// weight ≤ m for a small code: every one must reconstruct bit-exactly
// (the MDS property, which the coded exchange's "any k shares decode"
// recovery depends on).
func TestReconstructEveryErasurePattern(t *testing.T) {
	const k, m, size = 5, 3, 64
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	data := randomShares(rng, k, size)
	parity := encodeAll(t, c, data, size)

	n := k + m
	for mask := 0; mask < 1<<n; mask++ {
		erased := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				erased++
			}
		}
		if erased > m {
			continue
		}
		shares := make([][]byte, n)
		for i := 0; i < k; i++ {
			if mask&(1<<i) == 0 {
				shares[i] = data[i]
			}
		}
		for i := 0; i < m; i++ {
			if mask&(1<<(k+i)) == 0 {
				shares[k+i] = parity[i]
			}
		}
		if err := c.Reconstruct(shares); err != nil {
			t.Fatalf("mask %#x: %v", mask, err)
		}
		for i := 0; i < k; i++ {
			if !bytes.Equal(shares[i], data[i]) {
				t.Fatalf("mask %#x: share %d reconstructed wrong", mask, i)
			}
		}
	}
}

// TestParityRowZeroIsAllOnes: the scaled Cauchy construction makes parity
// share 0 the XOR of the data for every k, at small parity budgets and,
// for a sample of k, at the largest one k admits.
func TestParityRowZeroIsAllOnes(t *testing.T) {
	for k := 1; k <= 255; k++ {
		ms := []int{1, min(3, 256-k)}
		if k%32 == 0 || k == 255 {
			ms = append(ms, 256-k)
		}
		for _, m := range ms {
			c, err := New(k, m)
			if err != nil {
				t.Fatal(err)
			}
			for j, g := range c.gen[0] {
				if g != 1 {
					t.Fatalf("k=%d m=%d: gen[0][%d] = %d, want 1", k, m, j, g)
				}
			}
		}
	}
}

// TestEveryKSubsetDecodes tries every code with k+m ≤ 8 and, for each,
// every choice of k surviving shares: all must decode to the data (the
// MDS property, which column scaling must not break).
func TestEveryKSubsetDecodes(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for n := 1; n <= 8; n++ {
		for k := 1; k <= n; k++ {
			m := n - k
			c, err := New(k, m)
			if err != nil {
				t.Fatal(err)
			}
			size := 1 + rng.Intn(40)
			data := randomShares(rng, k, size)
			all := append(append([][]byte(nil), data...), encodeAll(t, c, data, size)...)
			for keep := 0; keep < 1<<n; keep++ {
				if bits.OnesCount(uint(keep)) != k {
					continue
				}
				shares := make([][]byte, n)
				for i := range shares {
					if keep&(1<<i) != 0 {
						shares[i] = all[i]
					}
				}
				if err := c.Reconstruct(shares); err != nil {
					t.Fatalf("k=%d m=%d keep %#b: %v", k, m, keep, err)
				}
				for i := 0; i < k; i++ {
					if !bytes.Equal(shares[i], data[i]) {
						t.Fatalf("k=%d m=%d keep %#b: share %d decoded wrong", k, m, keep, i)
					}
				}
			}
		}
	}
}

// TestXORPathMatchesGmul: mulAdd at coefficient 1 (the word-wide XOR) is
// byte-equal to the gmul loop at every length, tails included.
func TestXORPathMatchesGmul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var one [256]byte
	mulTable(&one, 1)
	for size := 0; size < 70; size++ {
		src, out := make([]byte, size), make([]byte, size)
		rng.Read(src)
		rng.Read(out)
		want := append([]byte(nil), out...)
		for b, v := range src {
			want[b] ^= gmul(1, v)
		}
		mulAdd(out, src, &one)
		if !bytes.Equal(out, want) {
			t.Fatalf("size %d: XOR path differs from the gmul loop", size)
		}
	}
}

// TestReconstructBeyondBudgetFailsTyped: losing more than m shares must
// yield ErrTooFewShares, never a wrong answer.
func TestReconstructBeyondBudgetFailsTyped(t *testing.T) {
	const k, m, size = 4, 1, 32
	c, err := New(k, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	data := randomShares(rng, k, size)
	parity := encodeAll(t, c, data, size)
	shares := [][]byte{nil, nil, data[2], data[3], parity[0]} // 2 erased, m=1
	if err := c.Reconstruct(shares); !errors.Is(err, ErrTooFewShares) {
		t.Fatalf("got %v, want ErrTooFewShares", err)
	}
}

// TestParamAndShapeErrors: every malformed input is a typed error.
func TestParamAndShapeErrors(t *testing.T) {
	for _, bad := range [][2]int{{0, 1}, {-1, 0}, {200, 100}, {1, -1}} {
		if _, err := New(bad[0], bad[1]); !errors.Is(err, ErrParams) {
			t.Errorf("New(%d,%d) = %v, want ErrParams", bad[0], bad[1], err)
		}
	}
	c, err := New(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 9)}
	parity := [][]byte{make([]byte, 8), make([]byte, 8)}
	if err := c.Encode(data, parity); !errors.Is(err, ErrShardSize) {
		t.Errorf("ragged data: %v, want ErrShardSize", err)
	}
	if err := c.Encode(data[:2], parity); !errors.Is(err, ErrShardCount) {
		t.Errorf("short data: %v, want ErrShardCount", err)
	}
	if err := c.Reconstruct(make([][]byte, 4)); !errors.Is(err, ErrShardCount) {
		t.Errorf("short shares: %v, want ErrShardCount", err)
	}
	if err := c.Reconstruct([][]byte{make([]byte, 4), make([]byte, 5), nil, nil, nil}); !errors.Is(err, ErrShardSize) {
		t.Errorf("ragged shares: %v, want ErrShardSize", err)
	}
}

// TestComplexBytesRoundtrip: the byte image is bijective on bit
// patterns, including NaN payloads, infinities and signed zeros.
func TestComplexBytesRoundtrip(t *testing.T) {
	vals := []complex128{
		0, complex(1, -1), complex(math.Inf(1), math.Inf(-1)),
		complex(math.NaN(), 0),
		complex(math.Float64frombits(0x7ff8dead_beef0001), math.Copysign(0, -1)),
		complex(math.SmallestNonzeroFloat64, -math.MaxFloat64),
	}
	raw := ComplexToBytes(nil, vals)
	if len(raw) != 16*len(vals) {
		t.Fatalf("byte image is %d bytes, want %d", len(raw), 16*len(vals))
	}
	back, err := BytesToComplex(nil, raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		wr, wi := math.Float64bits(real(vals[i])), math.Float64bits(imag(vals[i]))
		gr, gi := math.Float64bits(real(back[i])), math.Float64bits(imag(back[i]))
		if wr != gr || wi != gi {
			t.Errorf("element %d: bits %x/%x, want %x/%x", i, gr, gi, wr, wi)
		}
	}
	if _, err := BytesToComplex(nil, raw[:17]); !errors.Is(err, ErrShardSize) {
		t.Errorf("odd byte count: %v, want ErrShardSize", err)
	}
}

// TestReconstructRecoversComplexChunks is the end-to-end shape the
// coded exchange uses: R chunks of complex128, m parity, lose m shares,
// decode, and demand bit-identical chunks.
func TestReconstructRecoversComplexChunks(t *testing.T) {
	const r, m, chunk = 4, 2, 24
	c, err := New(r, m)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	orig := make([][]complex128, r)
	data := make([][]byte, r)
	for i := range orig {
		orig[i] = make([]complex128, chunk)
		for j := range orig[i] {
			orig[i][j] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		data[i] = ComplexToBytes(nil, orig[i])
	}
	parity := encodeAll(t, c, data, 16*chunk)
	shares := make([][]byte, r+m)
	copy(shares, data)
	copy(shares[r:], parity)
	shares[0], shares[2] = nil, nil // two dead ranks, m=2
	if err := c.Reconstruct(shares); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 2} {
		got, err := BytesToComplex(nil, shares[idx])
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if got[j] != orig[idx][j] {
				t.Fatalf("chunk %d element %d: %v != %v", idx, j, got[j], orig[idx][j])
			}
		}
	}
}

// The benchmarks' shape is the coded exchange's at two ranks and one
// parity share, each share one 64 KiB strip of the parity encode.
const benchK, benchM, benchSize = 2, 1, 64 << 10

// BenchmarkEncode measures parity throughput over the data bytes.
func BenchmarkEncode(b *testing.B) {
	c, err := New(benchK, benchM)
	if err != nil {
		b.Fatal(err)
	}
	data := randomShares(rand.New(rand.NewSource(1)), benchK, benchSize)
	parity := [][]byte{make([]byte, benchSize)}
	b.SetBytes(benchK * benchSize)
	for i := 0; i < b.N; i++ {
		if err := c.Encode(data, parity); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReconstruct measures rebuilding one lost data share from the
// survivors.
func BenchmarkReconstruct(b *testing.B) {
	c, err := New(benchK, benchM)
	if err != nil {
		b.Fatal(err)
	}
	data := randomShares(rand.New(rand.NewSource(1)), benchK, benchSize)
	parity := [][]byte{make([]byte, benchSize)}
	if err := c.Encode(data, parity); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(benchK * benchSize)
	for i := 0; i < b.N; i++ {
		if err := c.Reconstruct([][]byte{nil, data[1], parity[0]}); err != nil {
			b.Fatal(err)
		}
	}
}
