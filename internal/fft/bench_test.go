package fft

import (
	"fmt"
	"math"
	"testing"
)

// kernelLegs runs fn once per kernel set: the one init chose where it is
// not the Go kernels already, and the Go kernels.
func kernelLegs(b *testing.B, fn func(b *testing.B)) {
	if Kernel() != "go" {
		b.Run(Kernel(), fn)
	}
	b.Run("go", func(b *testing.B) {
		useGoKernels(b)
		fn(b)
	})
}

func reportGFLOPS(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GF/s")
}

// BenchmarkForward measures whole plans: powers of two from L1 to 2²⁰,
// the SOI segment length M' = 163 840 and a Bluestein prime.
func BenchmarkForward(b *testing.B) {
	kernelLegs(b, func(b *testing.B) {
		for _, n := range []int{1 << 10, 1 << 14, 163840, 1 << 18, 1 << 20, 65537} {
			b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
				p, err := NewPlan(n)
				if err != nil {
					b.Fatal(err)
				}
				src := randomVec(n, 1)
				dst := make([]complex128, n)
				b.SetBytes(int64(n) * 16)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Forward(dst, src)
				}
				reportGFLOPS(b, 5*float64(n)*math.Log2(float64(n)))
			})
		}
	})
}

// BenchmarkStage measures one pass of each radix that has a SIMD form, at
// a working set (input + output) inside L1, inside L2 and at SOI segment
// size. GF/s counts the pass as its share 5·n·log₂r of the transform.
func BenchmarkStage(b *testing.B) {
	for _, r := range []int{8, 5, 4} {
		b.Run(fmt.Sprintf("r%d", r), func(b *testing.B) {
			kernelLegs(b, func(b *testing.B) {
				for _, sz := range []struct {
					name string
					n    int
				}{{"L1", 1 << 10}, {"L2", 1 << 15}, {"seg", 1 << 17}} {
					// The second pass behind a radix-8 first: s = 8 lanes,
					// the rest sub-blocks.
					n := sz.n / 64 * 8 * r
					st := &buildStages(n, []int{8, r, n / (8 * r)})[1]
					b.Run(fmt.Sprintf("%s/n=%d", sz.name, n), func(b *testing.B) {
						x, y := randomVec(n, 2), make([]complex128, n)
						b.SetBytes(int64(n) * 32)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							applyStage(st, x, y)
						}
						reportGFLOPS(b, 5*float64(n)*math.Log2(float64(r)))
					})
				}
			})
		})
	}
}

// BenchmarkBatch8 measures the I⊗F_P codelet loop in both store forms on
// one cache-resident tile of the SOI convolution pass.
func BenchmarkBatch8(b *testing.B) {
	const rows = 256
	p, err := NewPlan(8)
	if err != nil {
		b.Fatal(err)
	}
	src := randomVec(rows*8, 3)
	dst := make([]complex128, rows*8)
	kernelLegs(b, func(b *testing.B) {
		for _, form := range []struct {
			name string
			fn   func()
		}{
			{"Batch", func() { p.Batch(dst, src, rows) }},
			{"BatchScatter", func() { p.BatchScatter(dst, src, rows, rows) }},
		} {
			b.Run(form.name, func(b *testing.B) {
				b.SetBytes(rows * 8 * 32)
				for i := 0; i < b.N; i++ {
					form.fn()
				}
				reportGFLOPS(b, rows*5*8*3)
			})
		}
	})
}
