//go:build race

package serve_test

// raceEnabled reports whether the race detector instruments this build.
// The detector makes sync.Pool drop puts at random, so the plans' pooled
// scratch is reallocated and the steady-state byte count cannot hold.
const raceEnabled = true
