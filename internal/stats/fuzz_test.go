package stats

import (
	"math"
	"testing"
)

// FuzzJSBounds checks symmetry and the [0,1] range of JS divergence over
// arbitrary count vectors.
func FuzzJSBounds(f *testing.F) {
	f.Add(1, 2, 3, 4, 4, 3, 2, 1)
	f.Add(0, 0, 0, 0, 10, 0, 0, 0)
	f.Add(100, 0, 0, 100, 0, 100, 100, 0)
	f.Fuzz(func(t *testing.T, a, b, c, d, e, g, h, i int) {
		norm := func(x int) int {
			if x < 0 {
				x = -x
			}
			return x % 1000
		}
		p := FromCounts([]int{norm(a), norm(b), norm(c), norm(d)})
		q := FromCounts([]int{norm(e), norm(g), norm(h), norm(i)})
		js, sj := JS(p, q), JS(q, p)
		if math.Abs(js-sj) > 1e-12 {
			t.Fatalf("asymmetric: %v vs %v", js, sj)
		}
		if js < 0 || js > 1+1e-12 {
			t.Fatalf("out of range: %v", js)
		}
	})
}

// FuzzJSCountsMatchesJS holds JSCounts to the composition it replaced,
// JS(FromCounts(a+b), NewUniform(k)), bit for bit, on fuzzed count vectors:
// the bytes of raw are read in threes as one class's group and client counts
// (up to 2¹⁶ and 2⁸), so k runs from 0 upward and whole rows can be zero.
func FuzzJSCountsMatchesJS(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{255, 255, 0, 0, 0, 255, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		k := len(raw) / 3
		a, b := make([]int, k), make([]int, k)
		for i := range a {
			a[i] = int(raw[3*i])<<8 | int(raw[3*i+1])
			b[i] = int(raw[3*i+2])
		}
		got, want := JSCounts(a, b), referenceJSCounts(a, b)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("JSCounts(%v, %v) = %v, the composition gives %v", a, b, got, want)
		}
		if got < 0 || got > 1+1e-12 {
			t.Fatalf("JSCounts(%v, %v) = %v, out of [0, 1]", a, b, got)
		}
	})
}
