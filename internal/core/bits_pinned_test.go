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
// P = 8 runs the convolution on the SIMD kernel where there is one,
// P = 4 always on the Go kernel; the hashes are the same on every amd64
// build, purego included. Other architectures may contract a·b+c into
// one fused multiply-add in the Go kernels, which rounds differently.
func TestTransformBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("hashes pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	p8 := Params{N: 1 << 14, P: 8, Mu: 5, Nu: 4, B: 72}
	p4 := Params{N: 1 << 12, P: 4, Mu: 5, Nu: 4, B: 24}
	want := map[string]string{
		"Transform P=8 workers=1":     "bbe07ce0d29ffb64bd012bd8c70787aece6c80c46a709c3bf84167313b13cbb4",
		"Transform P=8 workers=2":     "bbe07ce0d29ffb64bd012bd8c70787aece6c80c46a709c3bf84167313b13cbb4",
		"Transform P=4 workers=1":     "b5b8c5865206d4e1869382555e305d1d7f9a42a9084bff7ce6c1977310bbfb57",
		"Transform P=4 workers=2":     "b5b8c5865206d4e1869382555e305d1d7f9a42a9084bff7ce6c1977310bbfb57",
		"InverseTransform P=8":        "7ba38d635ffb89f803f769071f02e5cb127b7ce207a8e5e833a9478973d80785",
		"RunDistributed R=2 blocking": "2e3b2e933bb70b1d3464f5c1ec368664d35432868067362e1eddc34af40dc79a",
		"RunDistributed R=2 streamed": "2e3b2e933bb70b1d3464f5c1ec368664d35432868067362e1eddc34af40dc79a",
		"RunDistributed R=2 coded":    "2e3b2e933bb70b1d3464f5c1ec368664d35432868067362e1eddc34af40dc79a",
	}
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

	for name, h := range want {
		if got[name] != h {
			t.Errorf("%s: output hash %s, pinned %s", name, got[name], h)
		}
	}
}
