package tensor

import (
	"math/rand"
	"testing"
)

// MatMul's steady-state allocation budget, pinned so it cannot silently
// creep. On the serial path — every product too small to split, and every
// product on a one-CPU host — the only allocations are the destination's:
//
//   - New(m, n): 4 allocations — the Tensor struct, the copied Shape slice,
//     the Data backing array, and the variadic shape argument.
//
// The kernel itself allocates nothing: each MatMul*Into has one body, a named
// row-range function, and runRows calls it directly when the work stays on
// the caller.
//
// The parallel path adds nothing either — a fan-out is a pooled job record
// whose blocks the workers claim; TestParallelKernelAllocFree is the exact
// pin — so matMulParallelExtras is slack, not an expectation.
const (
	matMulSerialAllocs   = 4
	matMulParallelExtras = 16
)

func TestMatMulAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 64, 64)
	y := Randn(rng, 1, 64, 64)
	if got := testing.AllocsPerRun(100, func() { MatMulInto(New(64, 64), x, y, 1) }); got > matMulSerialAllocs {
		t.Errorf("serial MatMul allocates %.0f/op, budget %d — the kernel hot path regressed", got, matMulSerialAllocs)
	}
	if got := testing.AllocsPerRun(100, func() { MatMulInto(New(64, 64), x, y, 8) }); got > matMulSerialAllocs+matMulParallelExtras {
		t.Errorf("parallel MatMul allocates %.0f/op, budget %d", got, matMulSerialAllocs+matMulParallelExtras)
	}
}

// TestMatMulIntoAllocFree pins the Into-variants: with a caller-provided
// destination a serial kernel call performs zero allocations.
func TestMatMulIntoAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 64, 64)
	y := Randn(rng, 1, 64, 64)
	dst := New(64, 64)
	for name, kernel := range intoKernels {
		if got := testing.AllocsPerRun(100, func() { kernel(dst, x, y, 1) }); got != 0 {
			t.Errorf("serial %s allocates %.0f/op, want 0", name, got)
		}
	}
}

// TestParallelKernelAllocFree pins the fan-out: a product large enough to be
// split across the pool allocates as little as one that is not, at widths 1
// and 4. The three matmul kernels cost nothing.
func TestParallelKernelAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 64, 64) // 2·64³ = 2¹⁹ scalar operations, above minParallelWork
	y := Randn(rng, 1, 64, 64)
	dst := New(64, 64)
	if p := blocksFor(x.Rows(), 2*64*64*64, 4); p != 4 {
		t.Fatalf("a 64³ product at width 4 runs in %d blocks; the test would measure the serial path", p)
	}
	for _, width := range []int{1, 4} {
		for name, kernel := range intoKernels {
			kernel(dst, x, y, width) // start the workers, fill the completion pool
			if got := testing.AllocsPerRun(100, func() { kernel(dst, x, y, width) }); got != 0 {
				t.Errorf("%s at width %d allocates %.0f/op, want 0", name, width, got)
			}
		}
	}
}

// intoKernels are the three destination-passing kernels at one signature.
// MatMulInto's width is optional, so it is called directly: a variadic
// argument passed through a func value escapes, and allocates.
var intoKernels = map[string]func(dst, a, b *Tensor, width int) *Tensor{
	"MatMulInto":   func(dst, a, b *Tensor, width int) *Tensor { return MatMulInto(dst, a, b, width) },
	"MatMulATInto": MatMulATInto,
	"MatMulBTInto": MatMulBTInto,
}
