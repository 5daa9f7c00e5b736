package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The kernels in this package split their output across a small package-level
// worker pool when the operation is large enough to amortize the hand-off.
// Each worker owns a disjoint block of output rows, so per-element float64
// accumulation order is identical to the serial kernels and results are
// bit-identical at any width — experiment curves never depend on the machine
// the simulation ran on.
//
// How wide a kernel may fan out is its caller's to say: the width is the
// number of cores the caller grants the call, and the caller is whoever owns
// the work — a pipeline stage its share of the box, a trainer its share of a
// round's trainers (Split), a lone trainer the whole box. Width 1 keeps the
// kernel on the caller's goroutine; width 0 is every core, GOMAXPROCS.
//
// A fan-out is described once, in a job drawn from a pool — the kernel and
// its operands, the range and the completion counter — and what travels over
// the one work queue is a pointer to it: whoever receives it claims the job's
// next block. No closure is built and nothing is allocated: a parallel
// MatMul*Into costs what a serial one does, zero (TestParallelKernelAllocFree).

// minParallelWork is the approximate scalar-operation count below which a
// kernel stays on the calling goroutine: small matrices would spend more
// time on hand-off than on arithmetic.
const minParallelWork = 1 << 16

var (
	workerMu    sync.Mutex
	workerCount int
	workQueue   chan *job
)

// Split divides procs cores between n jobs that want to run at once: at most
// procs of them run concurrently (callers), and each gets a width of
// max(1, procs ÷ callers). A pipeline's S stages all run at once, so a stage
// gets Split(procs, S)'s width; a round's trainers are Split's callers.
func Split(procs, n int) (callers, width int) {
	callers = max(1, min(procs, n))
	return callers, max(1, procs/callers)
}

// ensureWorkers grows the pool to at least n resident workers. Workers are
// never torn down: the pool is bounded by the widest fan-out ever run, which
// is bounded by the widths callers grant.
func ensureWorkers(n int) {
	workerMu.Lock()
	if workQueue == nil {
		workQueue = make(chan *job, 128) // one fan-out queues width−1 blocks; beyond that, inline
	}
	for workerCount < n {
		workerCount++
		go func() {
			for j := range workQueue {
				j.runBlock()
			}
		}()
	}
	workerMu.Unlock()
}

// rowKernel is a matmul kernel body: it computes output rows [lo, hi) of
// dst from a and b.
type rowKernel func(dst, a, b *Tensor, lo, hi int)

// job is one fan-out in progress: kernel over dst, a and b's rows [0, n) in
// blocks of chunk rows. Blocks are claimed, not assigned — next counts the
// claims — which changes who computes a block, never what it computes.
type job struct {
	kernel    rowKernel
	dst, a, b *Tensor
	n, chunk  int
	next      atomic.Int32
	done      sync.WaitGroup
}

// runBlock claims the job's next block and runs it.
func (j *job) runBlock() {
	lo := int(j.next.Add(1)-1) * j.chunk
	j.kernel(j.dst, j.a, j.b, lo, min(lo+j.chunk, j.n))
	j.done.Done()
}

// jobs recycles job records: one that workers point to lives on the heap, and
// once its Wait has returned every block has been claimed and finished, so
// nothing points to it any more and it is free to describe the next fan-out.
var jobs = sync.Pool{New: func() any { return new(job) }}

// submit hands one block of j to a pool worker, or runs it inline when the
// queue is saturated. Running inline keeps a fan-out deadlock-free by
// construction: no block ever waits on queue capacity.
func submit(j *job) {
	select {
	case workQueue <- j:
	default:
		j.runBlock()
	}
}

// blocksFor decides how a kernel over n rows with the given work estimate
// (total scalar operations) and width is dispatched: 1 means the body runs
// inline on the caller — the estimate is below minParallelWork or the width
// is 1 — and p ≥ 2 means p contiguous row blocks on the worker pool.
func blocksFor(n, work, width int) int {
	if work < minParallelWork {
		return 1
	}
	if width < 1 {
		width = runtime.GOMAXPROCS(0)
	}
	return max(1, min(width, n))
}

// runRows computes all rows of dst with kernel: in p ≥ 2 contiguous blocks,
// one on the caller and the rest on pool workers, when blocksFor says so, or
// by a direct call when the product is too small to split.
func runRows(kernel rowKernel, dst, a, b *Tensor, rows, work, width int) {
	p := blocksFor(rows, work, width)
	if p == 1 {
		kernel(dst, a, b, 0, rows)
		return
	}
	ensureWorkers(p - 1)
	j := jobs.Get().(*job)
	j.kernel, j.dst, j.a, j.b = kernel, dst, a, b
	j.n, j.chunk = rows, (rows+p-1)/p
	blocks := (rows + j.chunk - 1) / j.chunk
	j.next.Store(0)
	j.done.Add(blocks)
	for i := 1; i < blocks; i++ {
		submit(j)
	}
	j.runBlock()
	j.done.Wait()
	j.dst, j.a, j.b = nil, nil, nil // a pooled job must not keep operands alive
	jobs.Put(j)
}
