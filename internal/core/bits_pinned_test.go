package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"soifft/internal/mpi"
	"soifft/internal/signal"
)

// bitsHash is the SHA-256 of the float64 bits of v, real then imaginary
// part of each element, little-endian.
func bitsHash(v []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, z := range v {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(z)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(z)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTransformBitsPinned pins the exact output bits of the shared-memory
// and distributed drivers on seeded inputs. The kernels are free to
// change how they schedule the arithmetic, never what it rounds: a
// kernel rewrite that keeps these hashes kept every bit of every output.
// P = 8 runs the convolution on every kernel tier the host has (avx512,
// avx2, go), P = 4 always on the Go kernel; the hashes are the same on
// every tier and every amd64 build (default, GOAMD64=v3 and purego),
// because the convolution fuses
// its multiply-adds through math.FMA, which is correctly rounded
// everywhere. They stay amd64's own for two reasons the convolution
// contract does not reach: the window taps come from math.Exp and
// math.Sin, and Go gives math.Exp its own assembly per architecture;
// and other architectures' compilers contract a·b+c into one fused
// multiply-add in the unfused Go twins of the FFT kernels (kernels.go,
// demod.go and real.go among them on arm64).
func TestTransformBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes pinned on amd64; %s has its own math.Exp and may fuse the FFT twins' multiply-adds", runtime.GOARCH)
	}
	p8 := Params{N: 1 << 14, P: 8, Mu: 5, Nu: 4, B: 72}
	p4 := Params{N: 1 << 12, P: 4, Mu: 5, Nu: 4, B: 24}
	want := map[string]string{
		"Transform P=8 workers=1":     "6c65237cc3a266d3a53c36613312618969ebe9316626339664289b3b92e1306a",
		"Transform P=8 workers=2":     "6c65237cc3a266d3a53c36613312618969ebe9316626339664289b3b92e1306a",
		"Transform P=4 workers=1":     "450624460e074e850472f1b7978e13f38de2f67d0711705aab824f960b3af6d2",
		"Transform P=4 workers=2":     "450624460e074e850472f1b7978e13f38de2f67d0711705aab824f960b3af6d2",
		"InverseTransform P=8":        "ee9660db55684f9126d5ee5c17007ad01231f001266be33b4216d6eef885ffff",
		"RunDistributed R=2 blocking": "5972a170bba7704ae5fa816e90f28bb0e7d92b7279b4933983abf3ff03a8b071",
		"RunDistributed R=2 streamed": "5972a170bba7704ae5fa816e90f28bb0e7d92b7279b4933983abf3ff03a8b071",
		"RunDistributed R=2 coded":    "5972a170bba7704ae5fa816e90f28bb0e7d92b7279b4933983abf3ff03a8b071",
	}
	for _, k := range convolveKernels() {
		t.Run(k, func(t *testing.T) {
			useConvolveKernel(t, k)
			got := pinnedHashes(t, p8, p4)
			for name, h := range want {
				if got[name] != h {
					t.Errorf("%s: output hash %s, pinned %s", name, got[name], h)
				}
			}
		})
	}
}

// pinnedHashes runs TestTransformBitsPinned's transforms and hashes
// their outputs.
func pinnedHashes(t *testing.T, p8, p4 Params) map[string]string {
	got := map[string]string{}

	transform := func(p Params, workers int, inverse bool) string {
		p.Workers = workers
		pl, err := NewPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		src := signal.Random(p.N, 40)
		dst := make([]complex128, p.N)
		if inverse {
			err = pl.InverseTransform(dst, src)
		} else {
			err = pl.Transform(dst, src)
		}
		if err != nil {
			t.Fatal(err)
		}
		return bitsHash(dst)
	}
	got["Transform P=8 workers=1"] = transform(p8, 1, false)
	got["Transform P=8 workers=2"] = transform(p8, 2, false)
	got["Transform P=4 workers=1"] = transform(p4, 1, false)
	got["Transform P=4 workers=2"] = transform(p4, 2, false)
	got["InverseTransform P=8"] = transform(p8, 1, true)

	const r = 2
	pl, err := NewPlan(p8)
	if err != nil {
		t.Fatal(err)
	}
	src := signal.Random(p8.N, 41)
	nLocal := p8.N / r
	for name, opts := range map[string][]DistOption{
		"RunDistributed R=2 blocking": nil,
		"RunDistributed R=2 streamed": {WithAsyncWindow(2)},
		"RunDistributed R=2 coded":    {WithCoding(1)},
	} {
		w, err := mpi.NewWorld(r)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]complex128, p8.N)
		if err := w.Run(func(c *mpi.Comm) error {
			k := c.Rank()
			_, err := pl.RunDistributed(context.Background(), c, out[k*nLocal:(k+1)*nLocal], src[k*nLocal:(k+1)*nLocal], opts...)
			return err
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = bitsHash(out)
	}

	return got
}
