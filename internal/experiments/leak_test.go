package experiments

import (
	"runtime"
	"testing"

	"gridftp.dev/instant/internal/leakcheck"
)

func TestGoroutineLeakAfterE2(t *testing.T) {
	before := runtime.NumGoroutine()
	_, err := RunE2ParallelStreams(E2Config{
		FileBytes:   256 << 10,
		Link:        DefaultE2().Link,
		Parallelism: []int{1, 4, 16},
		Loss:        []float64{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	after := leakcheck.AtMost(before)
	t.Logf("goroutines before=%d after=%d", before, after)
	if after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("leaked %d goroutines:\n%.4000s", after-before, buf[:runtime.Stack(buf, true)])
	}
}
