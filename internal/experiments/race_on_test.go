//go:build race

package experiments

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, so tests that count allocations skip themselves.
const raceEnabled = true
