package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ecofl/internal/metrics"
)

// The kernels in this package split their output across a small package-level
// worker pool when the operation is large enough to amortize the hand-off.
// Each worker owns a disjoint block of output rows, so per-element float64
// accumulation order is identical to the serial kernels and results are
// bit-identical at any parallelism level — experiment curves never depend on
// the machine the simulation ran on.

// minParallelWork is the approximate scalar-operation count below which a
// kernel stays on the calling goroutine: small matrices would spend more
// time on hand-off than on arithmetic.
const minParallelWork = 1 << 16

var (
	// requestedParallelism is the knob set by SetParallelism; 0 means
	// "unset", which falls back to GOMAXPROCS at call time.
	requestedParallelism atomic.Int32

	workerMu    sync.Mutex
	workerCount int
	workQueue   chan func()
)

// Pool observability: resident-worker busy/idle split and task throughput.
// Tasks are chunky (ParallelFor only dispatches when the estimated work
// exceeds minParallelWork), so the two time.Now calls per task are noise;
// every update is a single atomic add. Inline fallbacks (queue saturated)
// are counted separately and not timed — they run on the caller's clock.
var (
	poolWorkersGauge = metrics.GetGauge("ecofl_tensor_pool_workers",
		"resident worker goroutines in the tensor compute pool")
	poolTasksTotal = metrics.GetCounter("ecofl_tensor_pool_tasks_total",
		"row-block tasks executed by pool workers")
	poolInlineTotal = metrics.GetCounter("ecofl_tensor_pool_inline_tasks_total",
		"row-block tasks run inline on the caller because the queue was full")
	poolBusyNanos = metrics.GetCounter("ecofl_tensor_pool_busy_nanoseconds_total",
		"total time pool workers spent executing tasks")
	poolIdleNanos = metrics.GetCounter("ecofl_tensor_pool_idle_nanoseconds_total",
		"total time resident pool workers spent waiting for tasks")
	parallelForSerial = metrics.GetCounter("ecofl_tensor_parallel_for_total",
		"ParallelFor invocations by dispatch path", "path", "serial")
	parallelForParallel = metrics.GetCounter("ecofl_tensor_parallel_for_total",
		"ParallelFor invocations by dispatch path", "path", "parallel")
)

// Parallelism returns the number of row-block workers kernels may use.
// Defaults to runtime.GOMAXPROCS(0) until SetParallelism is called.
func Parallelism() int {
	if n := requestedParallelism.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism sets the number of row-block workers kernels may use.
// n ≤ 1 forces every kernel onto the serial path (no goroutine hand-off),
// which is also the automatic behaviour on single-CPU machines. Results are
// bit-identical at every setting; the knob only trades wall-clock for CPUs.
// Safe for concurrent use.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	requestedParallelism.Store(int32(n))
}

// ensureWorkers grows the pool to at least n resident workers. Workers are
// never torn down: the pool is bounded by the largest parallelism ever
// requested, which is itself bounded by the knob.
func ensureWorkers(n int) {
	workerMu.Lock()
	if workQueue == nil {
		workQueue = make(chan func(), 128)
	}
	for workerCount < n {
		workerCount++
		go func() {
			idleSince := time.Now()
			for f := range workQueue {
				t0 := time.Now()
				poolIdleNanos.Add(t0.Sub(idleSince).Nanoseconds())
				f()
				idleSince = time.Now()
				poolBusyNanos.Add(idleSince.Sub(t0).Nanoseconds())
				poolTasksTotal.Inc()
			}
		}()
	}
	poolWorkersGauge.Set(float64(workerCount))
	workerMu.Unlock()
}

// submit hands f to a pool worker, or runs it inline when the queue is
// saturated. Running inline keeps ParallelFor deadlock-free by construction:
// no task ever waits on queue capacity.
func submit(f func()) {
	select {
	case workQueue <- f:
	default:
		poolInlineTotal.Inc()
		f()
	}
}

// blocksFor decides how a kernel over n rows with the given work estimate
// (total scalar operations) is dispatched, and counts the decision: 1 means
// the body runs inline on the caller — the estimate is below minParallelWork
// or only one worker is available — and p ≥ 2 means p contiguous row blocks
// on the worker pool.
func blocksFor(n, work int) int {
	p := Parallelism()
	if p > n {
		p = n
	}
	if p < 2 || work < minParallelWork {
		parallelForSerial.Inc()
		return 1
	}
	parallelForParallel.Inc()
	return p
}

// ParallelFor splits [0, n) into up to Parallelism() contiguous blocks and
// runs fn(lo, hi) for each, returning when every block is done. work is an
// estimate of the total scalar operations; when it is below an internal
// threshold — or parallelism is 1 — fn(0, n) runs inline on the caller.
// fn must touch only disjoint state per index; blocks may run on pool
// workers concurrently with the caller.
func ParallelFor(n, work int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if p := blocksFor(n, work); p > 1 {
		fanOut(n, p, fn)
	} else {
		fn(0, n)
	}
}

// fanOut runs fn over [0, n) in p ≥ 2 contiguous blocks: the first on the
// caller, the rest on pool workers.
func fanOut(n, p int, fn func(lo, hi int)) {
	ensureWorkers(p - 1)
	chunk := (n + p - 1) / p
	var wg sync.WaitGroup
	for lo := chunk; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		lo := lo
		wg.Add(1)
		submit(func() {
			fn(lo, hi)
			wg.Done()
		})
	}
	fn(0, chunk)
	wg.Wait()
}

// rowKernel is a matmul kernel body: it computes output rows [lo, hi) of
// dst from a and b.
type rowKernel func(dst, a, b *Tensor, lo, hi int)

// runRows computes all rows of dst with kernel, split across the worker pool
// exactly as ParallelFor would. On the inline path — every small-model
// training step — the body is called directly: the closure that carries the
// operands to pool workers is built only when there are workers to carry
// them to, so a serial kernel call allocates nothing.
func runRows(kernel rowKernel, dst, a, b *Tensor, rows, work int) {
	if p := blocksFor(rows, work); p > 1 {
		fanOut(rows, p, func(lo, hi int) { kernel(dst, a, b, lo, hi) })
	} else {
		kernel(dst, a, b, 0, rows)
	}
}
