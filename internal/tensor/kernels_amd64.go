//go:build !race

package tensor

// useAsm selects the AVX2 bodies of axpy, axpy4, minMax, quantize, mix and
// mixU8 (kernels_amd64.s) over the Go ones. It is decided once, here, from
// what the CPU and the OS support; the tests flip it to run every kernel
// table under both bodies. Under -race the Go bodies run instead (kernels_generic.go):
// the race detector cannot see the memory an assembly body touches.
var useAsm = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 (CPUID) and the OS saves
// the YMM registers across context switches (XGETBV).
func hasAVX2() bool

//go:noescape
func axpyAVX2(o []float64, av float64, b []float64)

//go:noescape
func axpy4AVX2(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64)

//go:noescape
func minMaxAVX2(w []float64) (lo, hi float64, finite bool)

//go:noescape
func quantizeAVX2(dst []uint8, w []float64, lo, scale float64)

//go:noescape
func mixAVX2(dst, a, b []float64, alpha, beta float64) (finite bool)

//go:noescape
func mixU8AVX2(dst, a []float64, q []uint8, lo, scale, alpha, beta float64) (finite bool)

// axpy adds av·b to o element-wise; len(b) must be at least len(o).
func axpy(o []float64, av float64, b []float64) {
	b = b[:len(o)]
	if useAsm {
		axpyAVX2(o, av, b)
		return
	}
	axpyGo(o, av, b)
}

// axpy4 adds a0·b0, then a1·b1, a2·b2 and a3·b3 to o element-wise, in that
// order for each element.
func axpy4(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64) {
	b0, b1, b2, b3 = b0[:len(o)], b1[:len(o)], b2[:len(o)], b3[:len(o)]
	if useAsm {
		axpy4AVX2(o, a0, a1, a2, a3, b0, b1, b2, b3)
		return
	}
	axpy4Go(o, a0, a1, a2, a3, b0, b1, b2, b3)
}

// minMax returns the least and the greatest element of w (a zero minimum
// with either sign) and whether every element is finite.
func minMax(w []float64) (lo, hi float64, finite bool) {
	if useAsm {
		return minMaxAVX2(w)
	}
	return minMaxGo(w)
}

// quantize writes round((w[i] − lo) / scale) to dst[i]; len(dst) must be at
// least len(w).
func quantize(dst []uint8, w []float64, lo, scale float64) {
	dst = dst[:len(w)]
	if useAsm {
		quantizeAVX2(dst, w, lo, scale)
		return
	}
	quantizeGo(dst, w, lo, scale)
}

// mix writes (1−alpha)·a[i] + alpha·b[i] to dst[i] and reports whether every
// b[i] is finite; a and b are len(dst) long.
func mix(dst, a, b []float64, alpha float64) bool {
	if useAsm {
		return mixAVX2(dst, a, b, alpha, 1-alpha)
	}
	return mixGo(dst, a, b, alpha)
}

// mixU8 is mix with b[i] = lo + float64(q[i])·scale.
func mixU8(dst, a []float64, q []uint8, lo, scale, alpha float64) bool {
	if useAsm {
		return mixU8AVX2(dst, a, q, lo, scale, alpha, 1-alpha)
	}
	return mixU8Go(dst, a, q, lo, scale, alpha)
}
