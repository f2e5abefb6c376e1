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
	// Tiny geometry: 5 raw points, 3s agg buckets, 10 agg points.
	return New(Options{
		RawStep: time.Second, RawRetention: 5 * time.Second,
		AggStep: 3 * time.Second, AggRetention: 30 * time.Second,
	})
}

func TestTwoTierDownsamplingRollover(t *testing.T) {
	r := testRecorder()
	// Nine 1s samples: buckets [0,3) [3,6) close when crossed; [6,9) stays
	// open until a 10th point arrives.
	for i := 0; i < 9; i++ {
		r.observe("s", t0.Add(time.Duration(i)*time.Second), float64(i))
	}

	// Raw ring (cap 5) keeps the newest five: values 4..8.
	raw := r.Query("s", t0.Add(4*time.Second), 0)
	if len(raw) != 5 || raw[0].V != 4 || raw[4].V != 8 {
		t.Fatalf("raw tail = %v, want values 4..8", raw)
	}

	// Aggregated tier holds the two closed buckets, stamped at the bucket
	// start, averaging their three members: (0+1+2)/3=1, (3+4+5)/3=4.
	all := r.Query("s", time.Time{}, 0)
	// Raw retains 4..8 (oldest raw is t0+4s); agg points strictly before
	// that: only the [0,3) bucket at t0. The [3,6) bucket (t0+3s) overlaps
	// the raw span and must not be duplicated into the result.
	if len(all) != 6 {
		t.Fatalf("merged query = %v, want 1 agg + 5 raw points", all)
	}
	if !all[0].T.Equal(t0) || all[0].V != 1 {
		t.Errorf("agg point = %+v, want t0 avg 1", all[0])
	}
	for i := 1; i < len(all); i++ {
		if !all[i].T.After(all[i-1].T) {
			t.Errorf("merged points not strictly increasing at %d: %v", i, all)
		}
	}

	// The open [6,9) bucket has not rolled over: a query stepping at 3s
	// over the raw tail still sees its raw members.
	stepped := r.Query("s", time.Time{}, 3*time.Second)
	// Buckets: t0 (agg avg 1), t0+3 (raw 4,5 → wait raw starts at 4s) —
	// compute: points are (t0,1) (4s,4) (5s,5) (6s,6) (7s,7) (8s,8):
	// t0→1, t0+3s→(4+5)/2=4.5, t0+6s→(6+7+8)/3=7.
	want := []Point{{t0, 1}, {t0.Add(3 * time.Second), 4.5}, {t0.Add(6 * time.Second), 7}}
	if len(stepped) != len(want) {
		t.Fatalf("stepped = %v, want %v", stepped, want)
	}
	for i := range want {
		if !stepped[i].T.Equal(want[i].T) || math.Abs(stepped[i].V-want[i].V) > 1e-9 {
			t.Errorf("stepped[%d] = %+v, want %+v", i, stepped[i], want[i])
		}
	}
}

func TestExactTierBoundary(t *testing.T) {
	r := testRecorder()
	// A point exactly on an agg-bucket boundary opens the next bucket; the
	// previous bucket's average lands at the previous bucket's start.
	r.observe("s", t0.Add(2*time.Second), 10)
	r.observe("s", t0.Add(3*time.Second), 20) // exactly on the [3,6) edge
	all := r.Query("s", time.Time{}, 0)
	if len(all) != 2 {
		t.Fatalf("points = %v", all)
	}
	// Force the open bucket to roll and check its stamp.
	r.observe("s", t0.Add(6*time.Second), 30)
	r.mu.Lock()
	agg := r.series["s"].agg.points()
	r.mu.Unlock()
	if len(agg) != 2 {
		t.Fatalf("agg = %v, want 2 closed buckets", agg)
	}
	if !agg[0].T.Equal(t0) || agg[0].V != 10 {
		t.Errorf("agg[0] = %+v, want {t0 10}", agg[0])
	}
	if !agg[1].T.Equal(t0.Add(3*time.Second)) || agg[1].V != 20 {
		t.Errorf("agg[1] = %+v, want {t0+3s 20}", agg[1])
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
	r := New(Options{RawStep: 5 * time.Millisecond})
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
