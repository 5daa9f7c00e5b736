package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// kernelShapes are deliberately awkward: degenerate rows/columns, prime
// dimensions that never divide evenly across workers, and sizes straddling
// the serial/parallel work threshold.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 97, 1},
	{1, 7, 64},   // 1×N row vector result
	{64, 7, 1},   // N×1 column vector result
	{3, 5, 7},    // tiny, below threshold → serial even when parallel is on
	{17, 13, 19}, // prime dims, still below threshold
	{31, 37, 29}, // just below the 2·m·k·n ≥ 2^16 threshold
	{32, 32, 32}, // right at the threshold boundary
	{61, 53, 67}, // prime dims above the threshold
	{128, 64, 96},
}

func TestParallelKernelsBitIdenticalToSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, s := range kernelShapes {
		a := Randn(rng, 1, s.m, s.k)
		b := Randn(rng, 1, s.k, s.n)
		aT := Randn(rng, 1, s.k, s.m)
		bT := Randn(rng, 1, s.n, s.k)
		// Sprinkle exact zeros so the skip-zero fast path is exercised.
		for i := 0; i < len(a.Data); i += 3 {
			a.Data[i] = 0
		}
		kernels := func(width int) [3]*Tensor {
			return [3]*Tensor{
				MatMulInto(New(a.Rows(), b.Cols()), a, b, width),
				MatMulATInto(New(aT.Cols(), b.Cols()), aT, b, width),
				MatMulBTInto(New(a.Rows(), bT.Rows()), a, bT, width),
			}
		}
		serial := kernels(1)
		for _, width := range []int{2, 3, 8} {
			parallel := kernels(width)
			for i, name := range []string{"MatMul", "MatMulAT", "MatMulBT"} {
				if !Equal(serial[i], parallel[i]) {
					t.Fatalf("%s %dx%dx%d: width %d result not bit-identical to serial",
						name, s.m, s.k, s.n, width)
				}
			}
		}
	}
}

func TestMatMulIntoMatchesAllocatingKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Randn(rng, 1, 23, 31)
	b := Randn(rng, 1, 31, 17)
	aT := Randn(rng, 1, 31, 23)
	bT := Randn(rng, 1, 17, 31)
	// Stale destination contents must be fully overwritten.
	dst := New(23, 17)
	dst.Fill(math.NaN())
	if got := MatMulInto(dst, a, b); !Equal(got, MatMul(a, b)) {
		t.Fatal("MatMulInto differs from MatMul")
	}
	dst.Fill(math.NaN())
	if got := MatMulATInto(dst, aT, b, 1); !Equal(got, MatMulATInto(New(aT.Cols(), b.Cols()), aT, b, 1)) {
		t.Fatal("MatMulATInto differs from MatMulAT")
	}
	dst.Fill(math.NaN())
	if got := MatMulBTInto(dst, a, bT, 1); !Equal(got, MatMulBTInto(New(a.Rows(), bT.Rows()), a, bT, 1)) {
		t.Fatal("MatMulBTInto differs from MatMulBT")
	}
	if dst.Rows() != 23 || dst.Cols() != 17 {
		t.Fatalf("Into kernel left dst shape %v", dst.Shape)
	}
}

func TestMatMulIntoRejectsWrongDstSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MatMulInto with a wrong-sized dst must panic")
		}
	}()
	MatMulInto(New(2, 2), New(3, 4), New(4, 5))
}

// rowsFunc makes a closure a RowJob.
type rowsFunc func(lo, hi int)

func (f rowsFunc) Rows(lo, hi int) { f(lo, hi) }

func TestParallelRowsCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 5, 97} {
		var mu sync.Mutex
		seen := make([]int, n)
		// Force the parallel path with a huge work estimate.
		ParallelRows(n, 1<<30, 4, rowsFunc(func(lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			for i := lo; i < hi; i++ {
				seen[i]++
			}
		}))
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

// TestSplit pins how a box is shared: a stage of an S-stage pipeline, and
// each of a round's trainers, computes at Split's width, and no more jobs run
// at once than there are cores.
func TestSplit(t *testing.T) {
	for _, c := range []struct {
		procs, n              int
		wantCallers, wantWide int
	}{
		// A round's trainers: len(sel) ∈ {1, 2, procs, > procs}.
		{procs: 8, n: 1, wantCallers: 1, wantWide: 8},
		{procs: 8, n: 2, wantCallers: 2, wantWide: 4},
		{procs: 8, n: 8, wantCallers: 8, wantWide: 1},
		{procs: 8, n: 20, wantCallers: 8, wantWide: 1},
		{procs: 2, n: 1, wantCallers: 1, wantWide: 2},
		{procs: 2, n: 2, wantCallers: 2, wantWide: 1},
		{procs: 2, n: 16, wantCallers: 2, wantWide: 1},
		{procs: 1, n: 5, wantCallers: 1, wantWide: 1},
		// A pipeline's stages: S ∈ {1, 3, > procs}.
		{procs: 8, n: 3, wantCallers: 3, wantWide: 2},
		{procs: 2, n: 3, wantCallers: 2, wantWide: 1},
		{procs: 4, n: 9, wantCallers: 4, wantWide: 1},
		{procs: 16, n: 3, wantCallers: 3, wantWide: 5},
		// No job still leaves a caller a core.
		{procs: 4, n: 0, wantCallers: 1, wantWide: 4},
	} {
		callers, width := Split(c.procs, c.n)
		if callers != c.wantCallers || width != c.wantWide {
			t.Errorf("Split(%d, %d) = (%d, %d), want (%d, %d)", c.procs, c.n, callers, width, c.wantCallers, c.wantWide)
		}
		if callers > c.procs || width < 1 || (c.n >= 1 && callers > c.n) {
			t.Errorf("Split(%d, %d) = (%d, %d) oversubscribes or starves", c.procs, c.n, callers, width)
		}
	}
}

// TestBlocksForFollowsWidth pins the dispatch: a product below the work bar
// or granted one core stays on the caller, a larger one splits into at most
// the width granted — and no more blocks than rows — and width 0 is the box.
func TestBlocksForFollowsWidth(t *testing.T) {
	big := minParallelWork
	for _, c := range []struct{ n, work, width, want int }{
		{64, big - 1, 8, 1},
		{64, big, 1, 1},
		{64, big, 2, 2},
		{64, big, 4, 4},
		{3, big, 8, 3},
		{1, big, 8, 1},
	} {
		if got := blocksFor(c.n, c.work, c.width); got != c.want {
			t.Errorf("blocksFor(%d, %d, %d) = %d, want %d", c.n, c.work, c.width, got, c.want)
		}
	}
	if got, want := blocksFor(1<<10, big, 0), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("blocksFor at width 0 = %d, want GOMAXPROCS = %d", got, want)
	}
}

func TestBufferPoolRoundTrip(t *testing.T) {
	b1 := GetBufUninit(4, 5)
	b1.Fill(3)
	PutBuf(b1)
	b2 := GetBuf(2, 10) // same element count, different shape, zeroed
	if b2.Rows() != 2 || b2.Cols() != 10 {
		t.Fatalf("GetBuf shape %v, want [2 10]", b2.Shape)
	}
	for i, v := range b2.Data {
		if v != 0 {
			t.Fatalf("GetBuf element %d = %v, want 0 (stale pooled data leaked)", i, v)
		}
	}
	PutBuf(b2)
	PutBuf(nil) // must not panic
}

func TestSharesStorage(t *testing.T) {
	a, b := New(4, 5), New(4, 5)
	view := &Tensor{Shape: []int{20}, Data: a.Data}        // Flatten-style: whole storage, new header
	tail := &Tensor{Shape: []int{5}, Data: a.Data[15:]}    // partial overlap
	head := &Tensor{Shape: []int{3, 5}, Data: a.Data[:15]} // adjacent to tail, not overlapping
	for _, c := range []struct {
		name string
		x, y *Tensor
		want bool
	}{
		{"itself", a, a, true},
		{"full view", a, view, true},
		{"partial view", a, tail, true},
		{"adjacent slices of one array", head, tail, false},
		{"separate tensors", a, b, false},
		{"empty", a, New(0), false},
		{"nil", a, nil, false},
	} {
		if got := SharesStorage(c.x, c.y); got != c.want {
			t.Errorf("%s: SharesStorage = %v, want %v", c.name, got, c.want)
		}
		if got := SharesStorage(c.y, c.x); got != c.want {
			t.Errorf("%s (swapped): SharesStorage = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRowViewSharesStorage(t *testing.T) {
	a := New(3, 4)
	row := a.RowView(1)
	if len(row) != 4 {
		t.Fatalf("RowView length %d, want 4", len(row))
	}
	row[2] = 9
	if a.RowView(1)[2] != 9 {
		t.Fatal("RowView must alias the tensor's storage")
	}
}

// ---------------------------------------------------------------- AlmostEqual

func TestAlmostEqualShapeCheck(t *testing.T) {
	a := New(2, 3)
	b := New(3, 2) // same element count, different shape
	if AlmostEqual(a, b, 1e-9) {
		t.Fatal("tensors with different shapes must not be almost-equal")
	}
	c := New(6)
	if AlmostEqual(a, c, 1e-9) {
		t.Fatal("tensors with different ranks must not be almost-equal")
	}
	if !AlmostEqual(a, New(2, 3), 0) {
		t.Fatal("identical zero tensors must be almost-equal")
	}
}

func TestAlmostEqualNaN(t *testing.T) {
	a := New(2)
	b := New(2)
	a.Data[1] = math.NaN()
	b.Data[1] = math.NaN()
	if AlmostEqual(a, b, 1e-9) {
		t.Fatal("NaN must not compare as almost-equal to NaN")
	}
	b.Data[1] = 0
	if AlmostEqual(a, b, math.Inf(1)) {
		t.Fatal("NaN vs finite must not be almost-equal even with infinite tolerance")
	}
	if AlmostEqual(b, a, math.Inf(1)) {
		t.Fatal("finite vs NaN must not be almost-equal either")
	}
}

// Fill sets all elements to v; no program fills a tensor with one value.
func (t *Tensor) Fill(v float64) {
	for i := range t.Data {
		t.Data[i] = v
	}
}
