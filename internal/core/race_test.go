//go:build race

package core

// raceEnabled reports whether the race detector instruments this build.
// Tests skip under it what the detector makes too slow, and allocation
// bounds on paths where a sync.Pool (the transports' wire buffers) drops
// puts at random under -race. The node Transform path keeps its scratch on
// free lists, so its zero-allocation gate runs under -race too.
const raceEnabled = true
