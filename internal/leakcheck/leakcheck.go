// Package leakcheck is the one goroutine-leak helper of the test suites
// (gridftp, transfer, admin, experiments): count before, run and tear down,
// then AtMost(before) must not exceed before.
package leakcheck

import (
	"runtime"
	"time"
)

// AtMost polls until the goroutine count is back at or under limit or five
// seconds have passed — teardown is asynchronous: transfer goroutines unwind
// a moment after the final reply is read, servers close connections after
// the client has returned — and returns the last count seen.
func AtMost(limit int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}
