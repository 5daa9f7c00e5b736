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
// the caller. The closure that carries the operands to pool workers is built
// inside the parallel branch only, so the serial path never pays for it (it
// used to: 1 allocation per kernel call, 6 per MLP training step).
//
// The parallel path adds O(Parallelism): that closure, one wrapper closure
// per submitted block and the WaitGroup — independent of matrix size.
const (
	matMulSerialAllocs   = 4
	matMulParallelExtras = 16 // generous bound for blocks + sync at p=8
)

func TestMatMulAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, 64, 64)
	y := Randn(rng, 1, 64, 64)
	defer requestedParallelism.Store(0) // back to the GOMAXPROCS default

	SetParallelism(1)
	if got := testing.AllocsPerRun(100, func() { MatMul(x, y) }); got > matMulSerialAllocs {
		t.Errorf("serial MatMul allocates %.0f/op, budget %d — the kernel hot path regressed", got, matMulSerialAllocs)
	}
	SetParallelism(8)
	if got := testing.AllocsPerRun(100, func() { MatMul(x, y) }); got > matMulSerialAllocs+matMulParallelExtras {
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
	SetParallelism(1)
	defer requestedParallelism.Store(0)
	for name, kernel := range map[string]func(dst, a, b *Tensor) *Tensor{
		"MatMulInto": MatMulInto, "MatMulATInto": MatMulATInto, "MatMulBTInto": MatMulBTInto,
	} {
		if got := testing.AllocsPerRun(100, func() { kernel(dst, x, y) }); got != 0 {
			t.Errorf("serial %s allocates %.0f/op, want 0", name, got)
		}
	}
}
