package obs

import (
	"sync"
	"time"
)

// Every calls fn on its own goroutine once per interval d, passing the
// tick's time, until the returned stop function is called. It is the one
// background loop of the telemetry planes — the recorder's sampler, the
// stream poller and the admin plane's delta publisher all start here — so
// they share one lifecycle: stop is
// idempotent, returns only after a running fn has returned, and fn is never
// called after stop has returned. Ticks that fall due while fn runs are
// dropped, not queued.
func Every(d time.Duration, fn func(now time.Time)) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(d)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case now := <-tick.C:
				fn(now)
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(quit) })
		<-done
	}
}
