//go:build race

package runtime

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, which invalidates allocation-count tests.
const raceEnabled = true
