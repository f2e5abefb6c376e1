package streamstats

import (
	"math"
	"net"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/tsdb"
)

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	return New(Options{Obs: obs.Nop()}) // never started: nothing polls behind the test's back
}

// streamHealth returns stream i of the registry's only transfer.
func streamHealth(t *testing.T, r *Registry, i int) StreamHealth {
	t.Helper()
	h := r.Health()
	if len(h) != 1 || len(h[0].Streams) <= i {
		t.Fatalf("health table %+v has no stream %d of a single transfer", h, i)
	}
	return h[0].Streams[i]
}

// TestTellCountsPayloadAndProgress: what a block loop tells a stream is what
// its health row reports — payload bytes, the send calls' time as
// write-blocked time, and a last-progress stamp every block refreshes, a
// control block of no payload included. A stream index nothing registered
// and a nil transfer take a Tell without effect.
func TestTellCountsPayloadAndProgress(t *testing.T) {
	reg := newTestRegistry(t)
	tr := reg.Begin("told", "test")
	tr.Stream(0, nil)
	tr.Stream(1, nil)
	before := streamHealth(t, reg, 1).LastProgress
	tr.Tell(0, 1000, 3*time.Millisecond)
	tr.Tell(0, 24, 2*time.Millisecond)
	time.Sleep(time.Millisecond) // a clock coarser than the registration would hide the refresh
	tr.Tell(1, 0, 0)
	tr.Tell(2, 500, time.Second)
	var none *Transfer
	none.Stream(0, nil)
	none.Tell(0, 500, time.Second)

	if sh := streamHealth(t, reg, 0); sh.Bytes != 1024 || sh.BlockedMs != 5 {
		t.Fatalf("stream 0 reports %d bytes and %v ms blocked, want 1024 and 5", sh.Bytes, sh.BlockedMs)
	}
	sh := streamHealth(t, reg, 1)
	if sh.Bytes != 0 || sh.BlockedMs != 0 {
		t.Fatalf("stream 1 reports %d bytes and %v ms blocked after a control block, want 0 and 0", sh.Bytes, sh.BlockedMs)
	}
	if !sh.LastProgress.After(before) {
		t.Fatalf("a control block did not refresh last progress (%v, was %v)", sh.LastProgress, before)
	}
	if n := len(reg.Health()[0].Streams); n != 2 {
		t.Fatalf("a Tell to an unregistered stream left %d streams, want the 2 registered", n)
	}
}

// The poller on a hand-driven clock: poll(now) is the loop's whole body
// (Start only schedules it), so these tests choose every timestamp and
// never sleep. A stream's counters are what its block loop would have
// told.

// polledStream is one transfer with one stream on a registry nothing else
// polls.
func polledStream(t *testing.T, opts Options) (*Registry, *Transfer, *Stream) {
	t.Helper()
	opts.Obs = obs.Nop()
	reg := New(opts)
	tr := reg.Begin("t", "retr")
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	tr.Stream(0, nil)
	return reg, tr, tr.streams[0]
}

// gauge reads one of the poller's registry gauges.
func gauge(reg *Registry, name string) int64 {
	return reg.opts.Obs.Registry().Gauge(name).Value()
}

func eventsOfType(reg *Registry, typ string) []map[string]string {
	var out []map[string]string
	for _, ev := range reg.opts.Obs.Events() {
		if ev.Type == typ {
			out = append(out, ev.Fields)
		}
	}
	return out
}

func TestPollEWMAConverges(t *testing.T) {
	reg, _, s := polledStream(t, Options{})
	t0 := time.Unix(1_700_000_000, 0)
	reg.poll(t0) // baseline: no interval yet, so no rate
	if got := streamHealth(t, reg, 0).Throughput; got != 0 {
		t.Fatalf("throughput after the baseline poll = %v, want 0", got)
	}
	const rate = 1000.0 // bytes per one-second poll
	want, prev := 0.0, 0.0
	for i := 1; i <= 30; i++ {
		s.bytes.Add(int64(rate))
		reg.poll(t0.Add(time.Duration(i) * time.Second))
		want = 0.3*rate + 0.7*want
		got := streamHealth(t, reg, 0).Throughput
		if diff := got - want; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("poll %d: EWMA %v, want %v", i, got, want)
		}
		if got <= prev {
			t.Fatalf("poll %d: EWMA %v did not rise from %v under a steady rate", i, got, prev)
		}
		prev = got
	}
	if prev < 0.999*rate {
		t.Fatalf("EWMA %v after 30 steady polls, want within 0.1%% of %v", prev, rate)
	}
	// An idle second pulls the estimate down by exactly the smoothing factor.
	reg.poll(t0.Add(31 * time.Second))
	if got, want := streamHealth(t, reg, 0).Throughput, 0.7*prev; got-want > 1e-6 || want-got > 1e-6 {
		t.Fatalf("EWMA after one idle poll = %v, want %v", got, want)
	}
}

func TestPollStallRaisesEventThenRecovers(t *testing.T) {
	reg, tr, s := polledStream(t, Options{Stall: 5 * time.Second})
	t0 := time.Unix(1_700_000_000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	s.last.Store(t0.UnixNano())

	reg.poll(at(time.Second))
	if got := gauge(reg, StalledSeries); got != 0 || streamHealth(t, reg, 0).Stalled {
		t.Fatalf("%s = %v one second after progress, want 0", StalledSeries, got)
	}
	reg.poll(at(6 * time.Second))
	reg.poll(at(7 * time.Second)) // still stalled: counted, not re-announced
	if got := gauge(reg, StalledSeries); got != 1 || !streamHealth(t, reg, 0).Stalled {
		t.Fatalf("%s = %v past the stall window, want 1", StalledSeries, got)
	}
	stalled := eventsOfType(reg, "stream.stalled")
	if len(stalled) != 1 {
		t.Fatalf("%d stream.stalled events over two stalled polls, want 1", len(stalled))
	}
	if stalled[0]["transfer"] != "t" || stalled[0]["stream"] != "0" || stalled[0]["idle_ms"] != "6000" {
		t.Fatalf("stream.stalled fields = %v", stalled[0])
	}
	s.last.Store(at(7500 * time.Millisecond).UnixNano())
	reg.poll(at(8 * time.Second))
	if got := gauge(reg, StalledSeries); got != 0 || streamHealth(t, reg, 0).Stalled {
		t.Fatalf("%s = %v after progress, want 0", StalledSeries, got)
	}
	rec := eventsOfType(reg, "stream.recovered")
	if len(rec) != 1 || rec[0]["reason"] != "progress" {
		t.Fatalf("stream.recovered events = %v, want one with reason=progress", rec)
	}

	// A transfer that ends while stalled pairs its stall with reason=closed.
	reg.poll(at(14 * time.Second))
	tr.Done(nil)
	rec = eventsOfType(reg, "stream.recovered")
	if len(rec) != 2 || rec[1]["reason"] != "closed" {
		t.Fatalf("stream.recovered events after Done = %v, want a second with reason=closed", rec)
	}
	reg.poll(at(15 * time.Second))
	if got := gauge(reg, StalledSeries); got != 0 {
		t.Fatalf("%s = %v after the stalled transfer finished, want 0", StalledSeries, got)
	}
}

func TestPollStallAbortsOnce(t *testing.T) {
	reg, tr, s := polledStream(t, Options{Stall: 5 * time.Second})
	t0 := time.Unix(1_700_000_000, 0)
	s.last.Store(t0.UnixNano())
	aborts := 0
	tr.SetAbort(func() { aborts++ })

	reg.poll(t0.Add(4 * time.Second))
	if aborts != 0 {
		t.Fatal("abort called inside the stall window")
	}
	for _, d := range []time.Duration{6, 7, 8} {
		reg.poll(t0.Add(d * time.Second))
	}
	// Recover and stall again: the transfer is already being torn down.
	s.last.Store(t0.Add(9 * time.Second).UnixNano())
	reg.poll(t0.Add(10 * time.Second))
	reg.poll(t0.Add(20 * time.Second))
	if aborts != 1 {
		t.Fatalf("abort func called %d times, want once", aborts)
	}
	if !tr.StallAborted() {
		t.Fatal("StallAborted() false after the watchdog aborted the transfer")
	}
}

// TestImbalanceGaugeFiresTheRule: two streams of one transfer moving 1000
// and 100 bytes a second set gridftp.streams.imbalance_pct to 1000, and
// the stock stream-imbalance rule, reading that gauge through the
// recorder's sampler, fires once it has held for the rule's For.
func TestImbalanceGaugeFiresTheRule(t *testing.T) {
	reg := newTestRegistry(t)
	tr := reg.Begin("t", "retr")
	for i := 0; i < 2; i++ {
		a, b := net.Pipe()
		t.Cleanup(func() { a.Close(); b.Close() })
		tr.Stream(i, nil)
	}
	var rule tsdb.Rule
	for _, r := range tsdb.DefaultRules() {
		if r.Name == "stream-imbalance" {
			rule = r
		}
	}
	if rule.Series != ImbalanceSeries || rule.For <= 0 {
		t.Fatalf("stream-imbalance rule = %+v, want one on %s with a For", rule, ImbalanceSeries)
	}
	o := reg.opts.Obs
	rec := tsdb.New(tsdb.Options{})
	eng := tsdb.NewEngine(rec, o, []tsdb.Rule{rule})
	firing := func() bool { return len(eng.Active()) == 1 }

	t0 := time.Unix(1_700_000_000, 0)
	tick := func(at time.Time) {
		reg.poll(at)
		rec.SampleRegistry(o.Registry(), at)
		eng.Eval(at)
	}
	tick(t0) // baseline: no rates yet, the ratio reads 1x
	if got := gauge(reg, ImbalanceSeries); got != 100 {
		t.Fatalf("%s = %d with no rates, want 100", ImbalanceSeries, got)
	}
	breach := t0.Add(time.Second)
	for at := breach; !at.After(breach.Add(rule.For)); at = at.Add(time.Second) {
		if firing() {
			t.Fatalf("stream-imbalance fired at +%v, before its For of %v", at.Sub(breach), rule.For)
		}
		tr.streams[0].bytes.Add(1000)
		tr.streams[1].bytes.Add(100)
		tick(at)
		if got := gauge(reg, ImbalanceSeries); got != 1000 {
			t.Fatalf("%s = %d at 1000 vs 100 B/s, want 1000", ImbalanceSeries, got)
		}
	}
	if !firing() {
		t.Fatalf("stream-imbalance not firing after %v at 10x: %+v", rule.For, eng.Alerts())
	}

	// One stream goes quiet while the other keeps moving: its rate decays
	// toward zero and the gauge saturates instead of wrapping negative.
	at := breach.Add(rule.For)
	for i := 0; i < 200; i++ {
		at = at.Add(time.Second)
		tr.streams[0].bytes.Add(1000)
		tick(at)
	}
	if got := gauge(reg, ImbalanceSeries); got != math.MaxInt32 || !firing() {
		t.Fatalf("%s = %d with one stream idle, want it saturated at %d and the rule firing", ImbalanceSeries, got, math.MaxInt32)
	}
}
