//go:build !race

package fabric

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
