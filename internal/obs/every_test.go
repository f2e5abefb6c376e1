package obs

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestEvery is the lifecycle contract every plane's Start leans on, one
// row per clause.
func TestEvery(t *testing.T) {
	waitFor := func(t *testing.T, what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"ticks with the tick's time", func(t *testing.T) {
			var calls atomic.Int64
			var last atomic.Int64
			start := time.Now()
			stop := Every(time.Millisecond, func(now time.Time) {
				last.Store(now.UnixNano())
				calls.Add(1)
			})
			defer stop()
			waitFor(t, "three ticks", func() bool { return calls.Load() >= 3 })
			if got := time.Unix(0, last.Load()); got.Before(start) {
				t.Fatalf("callback got %v, before the loop started at %v", got, start)
			}
		}},
		{"stop is idempotent", func(t *testing.T) {
			stop := Every(time.Millisecond, func(time.Time) {})
			stop()
			stop()
		}},
		{"stop waits for a running callback", func(t *testing.T) {
			entered := make(chan struct{})
			release := make(chan struct{})
			var finished atomic.Bool
			stop := Every(time.Millisecond, func(time.Time) {
				select {
				case entered <- struct{}{}:
					<-release
					finished.Store(true)
				default: // a later tick: the test has moved on
				}
			})
			<-entered
			stopped := make(chan struct{})
			go func() { stop(); close(stopped) }()
			select {
			case <-stopped:
				t.Fatal("stop returned while the callback was still running")
			case <-time.After(20 * time.Millisecond):
			}
			close(release)
			<-stopped
			if !finished.Load() {
				t.Fatal("stop returned before the callback finished")
			}
		}},
		{"no tick after stop", func(t *testing.T) {
			var calls atomic.Int64
			stop := Every(time.Millisecond, func(time.Time) { calls.Add(1) })
			waitFor(t, "a tick", func() bool { return calls.Load() > 0 })
			stop()
			at := calls.Load()
			time.Sleep(20 * time.Millisecond)
			if got := calls.Load(); got != at {
				t.Fatalf("%d callbacks ran after stop returned", got-at)
			}
		}},
	} {
		t.Run(tc.name, tc.run)
	}
}
