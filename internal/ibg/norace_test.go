//go:build !race

package ibg

// raceEnabled reports whether the tests run under the race detector, whose
// slowdown makes the walks over every generated graph sample them instead.
const raceEnabled = false
