//go:build !race

package tensor

// useAsm selects the AVX2 bodies of axpy and axpy4 (kernels_amd64.s) over
// the Go ones. It is decided once, here, from what the CPU and the OS
// support; the tests flip it to run every kernel table under both bodies.
// Under -race the Go bodies run instead (kernels_generic.go): the race
// detector cannot see the memory an assembly body touches.
var useAsm = hasAVX2()

// hasAVX2 reports whether the CPU implements AVX2 (CPUID) and the OS saves
// the YMM registers across context switches (XGETBV).
func hasAVX2() bool

//go:noescape
func axpyAVX2(o []float64, av float64, b []float64)

//go:noescape
func axpy4AVX2(o []float64, a0, a1, a2, a3 float64, b0, b1, b2, b3 []float64)

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
