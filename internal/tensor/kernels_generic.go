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
