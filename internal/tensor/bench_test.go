package tensor

import (
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
		MatMulATInto(New(x.Cols(), y.Cols()), x, y)
	}
}

func BenchmarkMatMulBT64(b *testing.B) {
	x, y := benchMatPair(b, 64, 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulBTInto(New(x.Rows(), y.Rows()), x, y)
	}
}

// benchInto times one destination-passing kernel at 256×256×256 under the
// given parallelism. The serial variant is the pre-existing kernel's exact
// code path, so the parallel/serial ratio is the worker-pool speedup.
func benchInto(b *testing.B, procs int, kernel func(dst, x, y *Tensor) *Tensor) {
	x, y := benchMatPair(b, 256, 256, 256)
	dst := New(256, 256)
	prev := Parallelism()
	SetParallelism(procs)
	defer SetParallelism(prev)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(dst, x, y)
	}
}

func BenchmarkMatMulInto256Serial(b *testing.B)   { benchInto(b, 1, MatMulInto) }
func BenchmarkMatMulATInto256Serial(b *testing.B) { benchInto(b, 1, MatMulATInto) }
func BenchmarkMatMulBTInto256Serial(b *testing.B) { benchInto(b, 1, MatMulBTInto) }

func BenchmarkMatMulInto256Parallel(b *testing.B) {
	benchInto(b, runtime.GOMAXPROCS(0), MatMulInto)
}
func BenchmarkMatMulATInto256Parallel(b *testing.B) {
	benchInto(b, runtime.GOMAXPROCS(0), MatMulATInto)
}
func BenchmarkMatMulBTInto256Parallel(b *testing.B) {
	benchInto(b, runtime.GOMAXPROCS(0), MatMulBTInto)
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
func benchSmall(b *testing.B, kernel func(dst, x, y *Tensor) *Tensor, dst, x, y *Tensor) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kernel(dst, x, y)
	}
}

func BenchmarkMatMulIntoSmall(b *testing.B) {
	x, y := benchMatPair(b, 10, 32, 64)
	benchSmall(b, MatMulInto, New(10, 64), x, y)
}

func BenchmarkMatMulATIntoSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchSmall(b, MatMulATInto, New(32, 64), Randn(rng, 1, 10, 32), Randn(rng, 1, 10, 64))
}

func BenchmarkMatMulBTIntoSmall(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchSmall(b, MatMulBTInto, New(10, 32), Randn(rng, 1, 10, 64), Randn(rng, 1, 32, 64))
}
