package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// params are one run's knobs. The code under test never sees them: it
// receives only the inputs generated from them.
type params struct {
	seed    int64
	seconds float64
	// scale < 1 exists for the self-test only: it shrinks the measured time,
	// the minimum op counts and the simulator's virtual horizon, and turns
	// the quality thresholds off. It never shrinks a model.
	scale float64
}

// budget is the wall time a phase that gets frac of the run may measure for.
func (p params) budget(frac float64) time.Duration {
	return time.Duration(p.seconds * p.scale * frac * float64(time.Second))
}

// ops scales a minimum op count, never below one.
func (p params) ops(n int) int {
	return max(1, int(math.Ceil(float64(n)*p.scale)))
}

// subseed derives an independent positive seed for one input lane (data,
// update noise, client order, jitter), so lanes never share a stream.
func (p params) subseed(lane string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", p.seed, lane)
	return int64(h.Sum64()>>1) | 1
}

// instance is one set-up workload: servers listening, sessions dialled,
// data generated, ready for its first timed op.
type instance interface {
	// op runs generator g's i-th closed-loop call — the next is issued only
	// when this one has returned — and checks its output. It returns how many
	// operations the call completed: 1, except where the work inside one call
	// depends on the seed (a simulation's count of client trainings).
	op(g, i int, tr *tracer) (ops int, err error)
	// verify runs the end-of-run output checks over everything op recorded
	// and returns the workload's quality figure (the accuracy metric).
	verify(p params) (quality float64, problems []string)
	// layers fills the workload's own per-layer metrics from a traced segment.
	layers(p params, seg *segment, m map[string]float64) error
	close()
}

// workload names one load shape. Names are fixed: later issues cite them.
type workload struct {
	name string
	// gens is the number of closed-loop generator goroutines.
	gens int
	// minCalls is how many calls of op a run completes even if the time
	// budget ends first — those the quality figure is read from, so it
	// repeats exactly.
	minCalls int
	setup    func(p params, tr *tracer) (instance, error)
}

var workloads = []*workload{
	{name: "fedround-train", gens: 1, minCalls: fedQualityRounds, setup: setupFedround},
	{name: "ingest-dense", gens: 2, minCalls: 2000, setup: setupIngestDense},
	{name: "ingest-fleet", gens: 2, minCalls: 2000, setup: setupIngestFleet},
	{name: "pipeline-tcp", gens: 1, minCalls: pipeQualityRounds + 1, setup: setupPipeline},
	{name: "sim-ecofl", gens: 1, minCalls: simQualityRuns, setup: setupSim},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// segment is one timed region, or several added together: per-op wall times,
// the process counters' deltas over it, and the spans recorded inside it when
// tracing was on.
type segment struct {
	gens     int
	ops      int       // operations completed
	durs     []float64 // seconds per operation, one sample per completed call, all generators
	errs     []error   // at most one per generator and region: a failed op stops its loop
	wall     float64
	cpu      float64
	mallocs  float64
	bytes    float64
	gcCycles float64
	flnet    flnetCounts // deltas of the public flnet counters
	spans    []span
}

func (s *segment) attempted() int { return s.ops + len(s.errs) }

func (s *segment) add(o *segment) {
	s.gens = o.gens
	s.ops += o.ops
	s.durs = append(s.durs, o.durs...)
	s.errs = append(s.errs, o.errs...)
	s.wall += o.wall
	s.cpu += o.cpu
	s.mallocs += o.mallocs
	s.bytes += o.bytes
	s.gcCycles += o.gcCycles
	s.flnet = s.flnet.plus(o.flnet)
}

// drive runs w's generators over inst until both minCalls calls are done and
// the time budget d has passed. Each generator's loop is closed. tracers is nil
// with tracing off; otherwise generator g records spans into tracers[g], its
// own pre-sized buffer (no sharing, no locks).
func drive(w *workload, inst instance, minCalls int, d time.Duration, tracers []*tracer) *segment {
	seg := &segment{gens: w.gens}
	perGen := (minCalls + w.gens - 1) / w.gens
	durs := make([][]float64, w.gens)
	ops := make([]int, w.gens)
	errs := make([]error, w.gens)
	if tracers == nil {
		tracers = make([]*tracer, w.gens)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flnet0 := readFlnetCounts()
	cpu0 := cpuSeconds()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := 0; g < w.gens; g++ {
		durs[g] = make([]float64, 0, 1<<16)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGen || time.Now().Before(deadline); i++ {
				t0 := time.Now()
				n, err := inst.op(g, i, tracers[g])
				if err != nil {
					errs[g] = fmt.Errorf("generator %d call %d: %w", g, i, err)
					return
				}
				ops[g] += n
				durs[g] = append(durs[g], time.Since(t0).Seconds()/float64(n))
			}
		}(g)
	}
	wg.Wait()
	seg.wall = time.Since(start).Seconds()
	seg.cpu = cpuSeconds() - cpu0
	seg.flnet = readFlnetCounts().minus(flnet0)
	runtime.ReadMemStats(&after)
	seg.mallocs = float64(after.Mallocs - before.Mallocs)
	seg.bytes = float64(after.TotalAlloc - before.TotalAlloc)
	seg.gcCycles = float64(after.NumGC - before.NumGC)
	for g := range durs {
		seg.ops += ops[g]
		seg.durs = append(seg.durs, durs[g]...)
		if errs[g] != nil {
			seg.errs = append(seg.errs, errs[g])
		}
	}
	return seg
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// retainedHeap is the live heap after a forced collection. Two cycles: the
// first moves sync.Pool contents to the victim cache, the second frees them.
func retainedHeap() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// quantile is the q-quantile of xs by linear interpolation (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// perCall is the median time of one call of f, from batches sized to a
// millisecond or more each and repeated for budget (at least three batches).
func perCall(budget time.Duration, f func()) float64 {
	n := 1
	for ; n < 1<<20; n *= 2 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= time.Millisecond {
			break
		}
	}
	var means []float64
	deadline := time.Now().Add(budget)
	for len(means) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		means = append(means, time.Since(t0).Seconds()/float64(n))
	}
	return median(means)
}

// allocsPerCall is the mean number of heap allocations of one call of f.
func allocsPerCall(n int, f func()) float64 {
	var before, after runtime.MemStats
	f()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// checkReply is the per-reply output check every flnet op applies: the reply
// has the model's length and is all-finite. A NaN or Inf anywhere makes the
// sum non-finite, so one pass without branches suffices.
func checkReply(w []float64, n int) error {
	if len(w) != n {
		return fmt.Errorf("reply has %d weights, model has %d", len(w), n)
	}
	var s float64
	for _, v := range w {
		s += v
	}
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return fmt.Errorf("reply is not all-finite")
	}
	return nil
}

// checksum is an FNV-1a hash of a weight vector's bits.
func checksum(w []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range w {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}
