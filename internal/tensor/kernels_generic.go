//go:build !amd64 || race

package tensor

// useAsm is false on this build, which has no assembly bodies: it is not
// amd64, or it is -race, whose detector cannot see the memory an assembly
// body touches. It exists for the tests, which run every kernel table under
// each body the build can select.
var useAsm = false

// axpy adds av·b to o element-wise; len(b) must be at least len(o).
func axpy(o []float64, av float64, b []float64) { axpyGo(o, av, b) }

// axpy4 adds a0·b0, then a1·b1, a2·b2 and a3·b3 to o element-wise, in that
// order for each element.
func axpy4(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	axpy4Go(o, a0, a1, a2, a3, b0, b1, b2, b3)
}

// minMax returns the least and the greatest element of w (a zero minimum
// with either sign) and whether every element is finite.
func minMax(w []float64) (lo, hi float64, finite bool) { return minMaxGo(w) }

// quantize writes round((w[i] − lo) / scale) to dst[i]; len(dst) must be at
// least len(w).
func quantize(dst []uint8, w []float64, lo, scale float64) { quantizeGo(dst, w, lo, scale) }

// mix writes (1−alpha)·a[i] + alpha·b[i] to dst[i] and reports whether every
// b[i] is finite; a and b are len(dst) long.
func mix(dst, a, b []float64, alpha float64) bool { return mixGo(dst, a, b, alpha) }

// mixU8 is mix with b[i] = lo + float64(q[i])·scale.
func mixU8(dst, a []float64, q []uint8, lo, scale, alpha float64) bool {
	return mixU8Go(dst, a, q, lo, scale, alpha)
}
