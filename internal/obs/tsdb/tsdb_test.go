package tsdb

import (
	"fmt"
	"math"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// t0 is an arbitrary fixed epoch aligned to every step used in these
// tests, so bucket boundaries are exact.
var t0 = time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)

func testRecorder() *Recorder {
	// Tiny geometry: five points at a 1s step.
	return New(Options{Step: time.Second, Retention: 5 * time.Second})
}

func TestRingKeepsRetentionAndRebuckets(t *testing.T) {
	r := testRecorder()
	for i := 0; i < 9; i++ {
		r.observe("s", t0.Add(time.Duration(i)*time.Second), float64(i))
	}

	// The ring (cap 5) keeps the newest five: values 4..8, oldest first.
	all := r.Query("s", time.Time{}, 0)
	if len(all) != 5 || all[0].V != 4 || all[4].V != 8 {
		t.Fatalf("retained = %v, want values 4..8", all)
	}
	if since := r.Query("s", t0.Add(7*time.Second), 0); len(since) != 2 || since[0].V != 7 {
		t.Errorf("since t0+7s = %v, want values 7, 8", since)
	}

	// A 3s step averages per step-aligned bucket: t0+3s→(4+5)/2, t0+6s→(6+7+8)/3.
	stepped := r.Query("s", time.Time{}, 3*time.Second)
	want := []Point{{t0.Add(3 * time.Second), 4.5}, {t0.Add(6 * time.Second), 7}}
	if len(stepped) != len(want) {
		t.Fatalf("stepped = %v, want %v", stepped, want)
	}
	for i := range want {
		if !stepped[i].T.Equal(want[i].T) || math.Abs(stepped[i].V-want[i].V) > 1e-9 {
			t.Errorf("stepped[%d] = %+v, want %+v", i, stepped[i], want[i])
		}
	}
}

func TestObserveRejectsGarbage(t *testing.T) {
	r := testRecorder()
	r.observe("", t0, 1)
	r.observe("s", time.Time{}, 1)
	r.observe("s", t0, math.NaN())
	r.observe("s", t0, math.Inf(1))
	if names := r.SeriesNames(); len(names) != 0 {
		t.Fatalf("garbage observations created series %v", names)
	}
	var nilRec *Recorder
	nilRec.observe("s", t0, 1) // must not panic
	if _, ok := nilRec.Latest("s"); ok {
		t.Fatal("nil recorder returned a point")
	}
}

func TestSampleRegistryRatesAndReset(t *testing.T) {
	r := New(Options{})
	reg := obs.NewRegistry()
	reg.Counter("c").Add(100)
	reg.Gauge("g").Set(7)

	r.SampleRegistry(reg, t0) // baseline pass: gauges only
	if _, ok := r.Latest("c.rate"); ok {
		t.Fatal("first pass recorded a counter rate")
	}
	if p, ok := r.Latest("g"); !ok || p.V != 7 {
		t.Fatalf("gauge sample = %v %v, want 7", p, ok)
	}

	reg.Counter("c").Add(50)
	r.SampleRegistry(reg, t0.Add(2*time.Second))
	if p, ok := r.Latest("c.rate"); !ok || math.Abs(p.V-25) > 1e-9 {
		t.Fatalf("c.rate = %v %v, want 25/s (50 over 2s)", p, ok)
	}

	// A registry reset (fresh registry, same names, lower counts) must
	// clamp the negative delta to a zero rate, not a negative one.
	reg2 := obs.NewRegistry()
	reg2.Counter("c").Add(10)
	r.SampleRegistry(reg2, t0.Add(3*time.Second))
	if p, ok := r.Latest("c.rate"); !ok || p.V != 0 {
		t.Fatalf("post-reset c.rate = %v %v, want clamped 0", p, ok)
	}
}

func TestSampleRegistryWindowedQuantiles(t *testing.T) {
	r := New(Options{})
	reg := obs.NewRegistry()
	h := reg.Histogram("lat", []float64{0.1, 1, 10})
	h.Observe(0.05)

	r.SampleRegistry(reg, t0) // baseline

	// A burst of slow observations: the windowed p99 reflects only them.
	for i := 0; i < 20; i++ {
		h.Observe(5)
	}
	r.SampleRegistry(reg, t0.Add(time.Second))
	p, ok := r.Latest("lat.p99")
	if !ok || p.V <= 1 {
		t.Fatalf("windowed p99 = %v %v, want > 1 (burst of 5s observations)", p, ok)
	}
	if rate, ok := r.Latest("lat.rate"); !ok || math.Abs(rate.V-20) > 1e-9 {
		t.Fatalf("lat.rate = %v %v, want 20/s", rate, ok)
	}

	// Quiet window: rate and quantiles drop to the 0 sentinel, which is
	// what lets quantile alerts resolve.
	r.SampleRegistry(reg, t0.Add(2*time.Second))
	if p, ok := r.Latest("lat.p99"); !ok || p.V != 0 {
		t.Fatalf("quiet-window p99 = %v %v, want 0", p, ok)
	}
	if p, ok := r.Latest("lat.rate"); !ok || p.V != 0 {
		t.Fatalf("quiet-window rate = %v %v, want 0", p, ok)
	}
}

func TestDumpSeriesPrefixes(t *testing.T) {
	r := New(Options{})
	r.observe("gridftp.streams.active", t0, 1)
	r.observe("gridftp.streams.stalled", t0, 2)
	r.observe("gridftp.server.command_seconds.p99", t0, 3)

	all := r.DumpSeries(nil, time.Time{}, 0)
	if len(all) != 3 {
		t.Fatalf("DumpSeries(nil) = %d series, want 3", len(all))
	}
	streams := r.DumpSeries([]string{"gridftp.streams."}, time.Time{}, 0)
	if len(streams) != 2 {
		t.Fatalf("prefix dump = %v, want the 2 stream gauges", streams)
	}
	exact := r.DumpSeries([]string{"gridftp.server.command_seconds.p99"}, time.Time{}, 0)
	if len(exact) != 1 || len(exact[0].Points) != 1 {
		t.Fatalf("exact dump = %v", exact)
	}
	// since beyond all points → series with no in-range points are skipped.
	if got := r.DumpSeries(nil, t0.Add(time.Hour), 0); len(got) != 0 {
		t.Fatalf("future since dump = %v, want empty", got)
	}
}

func TestStartSamplesAndStops(t *testing.T) {
	r := New(Options{Step: 5 * time.Millisecond})
	reg := obs.NewRegistry()
	reg.Gauge("g").Set(42)
	stop := r.Start(reg, nil)
	deadline := time.Now().Add(2 * time.Second)
	for {
		if p, ok := r.Latest("g"); ok && p.V == 42 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler never recorded the gauge")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
}

func TestConcurrentObserveAndQuery(t *testing.T) {
	r := New(Options{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			r.observe("s", t0.Add(time.Duration(i)*time.Millisecond), float64(i))
		}
	}()
	for i := 0; i < 200; i++ {
		r.Query("s", time.Time{}, 0)
		r.Latest("s")
		r.SeriesNames()
	}
	<-done
}

// BenchmarkE15RecorderOverhead measures the time-series flight
// recorder's per-tick cost at production scale: one SampleRegistry pass
// over a registry wide enough to produce ~500 recorded series (gauges,
// counter rates, histogram rate+quantiles). The budget is <1% of the 1s
// sampling interval — recording history must be free relative to moving
// bytes — reported as pct-of-1s-interval.
func BenchmarkE15RecorderOverhead(b *testing.B) {
	reg := obs.NewRegistry()
	// 200 gauges + 100 counters (".rate") + 50 histograms (".rate",
	// ".p50", ".p90", ".p99") = 500 series per sampling pass.
	for i := 0; i < 200; i++ {
		reg.Gauge(fmt.Sprintf("bench.gauge.%03d", i)).Set(int64(i))
	}
	for i := 0; i < 100; i++ {
		reg.Counter(fmt.Sprintf("bench.counter.%03d", i)).Add(int64(i))
	}
	bounds := []float64{0.001, 0.01, 0.1, 1, 10}
	for i := 0; i < 50; i++ {
		h := reg.Histogram(fmt.Sprintf("bench.hist.%02d", i), bounds)
		for j := 0; j < 8; j++ {
			h.Observe(float64(j) / 10)
		}
	}
	rec := New(Options{})
	now := time.Unix(1_700_000_000, 0)
	rec.SampleRegistry(reg, now) // baseline pass
	if n := len(rec.SeriesNames()); n < 200 {
		b.Fatalf("baseline recorded %d series", n)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Touch the registry so every pass sees fresh deltas, as a live
		// daemon's would.
		reg.Counter("bench.counter.000").Inc()
		now = now.Add(time.Second)
		rec.SampleRegistry(reg, now)
	}
	b.StopTimer()
	if n := len(rec.SeriesNames()); n < 500 {
		b.Fatalf("recorded %d series, want >= 500", n)
	}
	perPass := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perPass/1e9*100, "pct-of-1s-interval")
	b.ReportMetric(float64(len(rec.SeriesNames())), "series")
}
