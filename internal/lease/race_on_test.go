//go:build race

package lease

// raceEnabled: under the race detector sync.Pool drops a quarter of what is
// put into it, so tests that count pool hits exactly skip themselves.
const raceEnabled = true
