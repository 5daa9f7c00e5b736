package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

func benchMatPair(b *testing.B, m, k, n int) (*Tensor, *Tensor) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	return Randn(rng, 1, m, k), Randn(rng, 1, k, n)
}

func BenchmarkMatMul64(b *testing.B) {
	x, y := benchMatPair(b, 64, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkMatMulAT64(b *testing.B) {
	x, y := benchMatPair(b, 64, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulATInto(New(x.Cols(), y.Cols()), x, y, 0)
	}
}

func BenchmarkMatMulBT64(b *testing.B) {
	x, y := benchMatPair(b, 64, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulBTInto(New(x.Rows(), y.Rows()), x, y, 0)
	}
}

// benchInto times one destination-passing kernel at 256×256×256 at the given
// width. The serial variant is the pre-existing kernel's exact code path, so
// the parallel/serial ratio is the worker-pool speedup.
func benchInto(b *testing.B, width int, kernel string) {
	x, y := benchMatPair(b, 256, 256, 256)
	dst := New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		intoKernels[kernel](dst, x, y, width)
	}
}

func BenchmarkMatMulInto256Serial(b *testing.B)   { benchInto(b, 1, "MatMulInto") }
func BenchmarkMatMulATInto256Serial(b *testing.B) { benchInto(b, 1, "MatMulATInto") }
func BenchmarkMatMulBTInto256Serial(b *testing.B) { benchInto(b, 1, "MatMulBTInto") }

func BenchmarkMatMulInto256Parallel(b *testing.B) {
	benchInto(b, runtime.GOMAXPROCS(0), "MatMulInto")
}
func BenchmarkMatMulATInto256Parallel(b *testing.B) {
	benchInto(b, runtime.GOMAXPROCS(0), "MatMulATInto")
}
func BenchmarkMatMulBTInto256Parallel(b *testing.B) {
	benchInto(b, runtime.GOMAXPROCS(0), "MatMulBTInto")
}

// BenchmarkFanOutBreakEven times an m×64·64×96 product — a pipeline-tcp
// micro-batch's first layer at m = 16 — at widths 1 and 2, for m from 16 to
// 256: where width 2 starts to beat width 1 is the work a fan-out has to
// clear to pay for its hand-off, to set beside minParallelWork (2·m·64·96 ≥
// 2¹⁶ for every m here, so every width-2 leg fans out).
func BenchmarkFanOutBreakEven(b *testing.B) {
	for _, m := range []int{16, 32, 64, 128, 256} {
		for _, width := range []int{1, 2} {
			b.Run(fmt.Sprintf("m=%d/width=%d", m, width), func(b *testing.B) {
				x, y := benchMatPair(b, m, 64, 96)
				dst := New(m, 96)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					MatMulInto(dst, x, y, width)
				}
				b.ReportMetric(float64(2*m*64*96)/1e6, "Mflop/op")
			})
		}
	}
}

func BenchmarkAddScaled(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := Randn(rng, 1, 1<<14)
	y := Randn(rng, 1, 1<<14)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.AddScaled(0.1, y)
	}
}

// benchSmall times the three kernels at the shapes one fedround-train step
// runs them at (MLP 32→64→10, batch 10): too small to leave the calling
// goroutine, so this is the serial fast path.
func benchSmall(b *testing.B, kernel string, dst, x, y *Tensor) {
	b.ReportAllocs()
	b.ResetTimer()
	k := intoKernels[kernel]
	for i := 0; i < b.N; i++ {
		k(dst, x, y, 0)
	}
}

func BenchmarkMatMulIntoSmall(b *testing.B) {
	x, y := benchMatPair(b, 10, 32, 64)
	benchSmall(b, "MatMulInto", New(10, 64), x, y)
}

func BenchmarkMatMulATIntoSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchSmall(b, "MatMulATInto", New(32, 64), Randn(rng, 1, 10, 32), Randn(rng, 1, 10, 64))
}

func BenchmarkMatMulBTIntoSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchSmall(b, "MatMulBTInto", New(10, 32), Randn(rng, 1, 10, 64), Randn(rng, 1, 32, 64))
}
