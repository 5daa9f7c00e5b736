//go:build !race

package fl

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, and sync.Pool drops a share of what is put
// back, which invalidates allocation-count tests.
const raceEnabled = false
