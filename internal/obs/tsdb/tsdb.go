// Package tsdb is the in-memory time-series flight recorder: one
// fixed-size ring buffer of (timestamp, value) points per series, sampled
// from an obs.Registry (counters become rates, gauges values,
// histograms windowed quantiles). The sampler is its one input, so the
// series it holds are named by the metrics in the code and their number
// does not grow with traffic. It answers the questions a point-in-time
// /metrics scrape cannot — "what was the transfer rate 30 seconds ago?",
// "is p99 latency degrading?" — without an external Prometheus, per the
// self-contained production-service goal.
//
// Data model: each series keeps one tier of points at the sampling cadence
// (default 1s, retained 5 minutes). Memory per series is bounded by the
// ring's capacity, so a daemon recording hundreds of series for weeks
// stays flat.
//
// The package is stdlib-only and depends on internal/obs alone; the
// alert engine over it lives in alerts.go.
package tsdb

import (
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// Point is one sample of a series.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// Options size the recorder's one tier. Zero fields take the defaults.
type Options struct {
	// Step is the cadence of the background registry sampler, and so the
	// spacing of a series' points (default 1s).
	Step time.Duration
	// Retention is how much history each series keeps (default 5m).
	Retention time.Duration
}

func (o Options) withDefaults() Options {
	if o.Step <= 0 {
		o.Step = time.Second
	}
	if o.Retention <= 0 {
		o.Retention = 5 * time.Minute
	}
	return o
}

// ring is a fixed-capacity circular buffer of points ordered by time.
type ring struct {
	buf  []Point
	head int // index of the oldest point
	n    int
}

func newRing(capacity int) *ring {
	if capacity < 1 {
		capacity = 1
	}
	return &ring{buf: make([]Point, capacity)}
}

func (r *ring) at(i int) Point { return r.buf[(r.head+i)%len(r.buf)] }

// push appends p at the newest end, evicting the oldest point when full.
func (r *ring) push(p Point) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = p
		r.n++
		return
	}
	r.buf[r.head] = p
	r.head = (r.head + 1) % len(r.buf)
}

// points returns the ring's contents oldest first.
func (r *ring) points() []Point {
	out := make([]Point, r.n)
	for i := 0; i < r.n; i++ {
		out[i] = r.at(i)
	}
	return out
}

// Recorder is the concurrency-safe recorder. The zero value is not
// usable; construct with New.
type Recorder struct {
	opts Options

	mu     sync.Mutex
	series map[string]*ring

	// Sampler state: previous cumulative values, so counters and
	// histogram buckets turn into windowed rates/quantiles.
	smu          sync.Mutex
	lastSample   time.Time
	lastCounters map[string]int64
	lastBuckets  map[string][]int64
}

// New returns an empty recorder with the given tier geometry.
func New(opts Options) *Recorder {
	o := opts.withDefaults()
	return &Recorder{
		opts:         o,
		series:       make(map[string]*ring),
		lastCounters: make(map[string]int64),
		lastBuckets:  make(map[string][]int64),
	}
}

func (r *Recorder) seriesFor(name string) *ring {
	s, ok := r.series[name]
	if !ok {
		s = newRing(int(r.opts.Retention / r.opts.Step))
		r.series[name] = s
	}
	return s
}

// observe records value v for the named series at time t, which the
// sampler guarantees is no earlier than the series' newest point. NaN and
// ±Inf values are dropped (they would poison downstream averages and
// alert comparisons), as are zero timestamps.
func (r *Recorder) observe(name string, t time.Time, v float64) {
	if r == nil || name == "" || t.IsZero() || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seriesFor(name).push(Point{T: t, V: v})
}

// SeriesNames returns every recorded series name, sorted.
func (r *Recorder) SeriesNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.series))
	for name := range r.series {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Query returns the named series' points at or after since (zero = all
// retained history), oldest first. A step > 0 re-buckets the result by
// averaging per step — the ?step= selection of the admin endpoint.
func (r *Recorder) Query(name string, since time.Time, step time.Duration) []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var out []Point
	if s, ok := r.series[name]; ok {
		out = s.points()
	}
	r.mu.Unlock()
	if !since.IsZero() {
		i := sort.Search(len(out), func(i int) bool { return !out[i].T.Before(since) })
		out = out[i:]
	}
	if step > 0 {
		out = rebucket(out, step)
	}
	return out
}

// rebucket averages time-ordered points per step-aligned bucket.
func rebucket(pts []Point, step time.Duration) []Point {
	var out []Point
	var start time.Time
	sum, n := 0.0, 0
	flush := func() {
		if n > 0 {
			out = append(out, Point{T: start, V: sum / float64(n)})
		}
	}
	for _, p := range pts {
		b := p.T.Truncate(step)
		if n == 0 || !b.Equal(start) {
			flush()
			start, sum, n = b, 0, 0
		}
		sum += p.V
		n++
	}
	flush()
	return out
}

// Latest returns the newest point of the series, ok=false when the
// series is unknown or empty.
func (r *Recorder) Latest(name string) (Point, bool) {
	if r == nil {
		return Point{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok || s.n == 0 {
		return Point{}, false
	}
	return s.at(s.n - 1), true
}

// SeriesDump is one series in the /debug/timeseries response shape.
type SeriesDump struct {
	Name   string  `json:"name"`
	Points []Point `json:"points"`
}

// DumpSeries renders every series whose name matches one of the given
// prefixes (nil/empty = all) through Query(since, step), skipping series
// with no points in range. A prefix matches exactly or as a name prefix,
// so "gridftp.streams." selects every stream health gauge.
func (r *Recorder) DumpSeries(prefixes []string, since time.Time, step time.Duration) []SeriesDump {
	var out []SeriesDump
	for _, name := range r.SeriesNames() {
		if !matchesAny(name, prefixes) {
			continue
		}
		pts := r.Query(name, since, step)
		if len(pts) == 0 {
			continue
		}
		out = append(out, SeriesDump{Name: name, Points: pts})
	}
	return out
}

func matchesAny(name string, prefixes []string) bool {
	if len(prefixes) == 0 {
		return true
	}
	for _, p := range prefixes {
		if p != "" && (name == p || strings.HasPrefix(name, p)) {
			return true
		}
	}
	return false
}

// SampleRegistry takes one sampling pass over the registry at time now:
// every counter becomes a windowed rate on "<name>.rate" (negative
// deltas after a registry reset clamp to zero), every gauge a value
// sample on its own name, and every histogram a windowed observation
// rate plus windowed p50/p90/p99 ("<name>.p50"...) computed from the
// bucket deltas since the previous pass — the burn over the window, not
// the all-time cumulative distribution, so quantile alerts can resolve
// when the storm stops. A window with no new observations records 0 for
// rate and quantiles. The first pass establishes baselines and records
// only gauges.
func (r *Recorder) SampleRegistry(reg *obs.Registry, now time.Time) {
	if r == nil || reg == nil {
		return
	}
	metrics, hists := reg.Snapshot(), reg.HistogramSnapshots()
	r.smu.Lock()
	defer r.smu.Unlock()
	interval := now.Sub(r.lastSample)
	first := r.lastSample.IsZero()
	r.lastSample = now

	for _, m := range metrics {
		switch m.Kind {
		case "gauge":
			r.observe(m.Name, now, float64(m.Value))
		case "counter":
			prev, seen := r.lastCounters[m.Name]
			r.lastCounters[m.Name] = m.Value
			if first || !seen || interval <= 0 {
				continue
			}
			delta := m.Value - prev
			if delta < 0 {
				delta = 0 // registry reset: a rate is never negative
			}
			r.observe(m.Name+".rate", now, float64(delta)/interval.Seconds())
		}
	}
	for _, h := range hists {
		prev, seen := r.lastBuckets[h.Name]
		r.lastBuckets[h.Name] = h.Counts
		if first || !seen || interval <= 0 {
			continue
		}
		window := windowCounts(h.Counts, prev)
		total := int64(0)
		if len(window) > 0 {
			total = window[len(window)-1]
		}
		r.observe(h.Name+".rate", now, float64(total)/interval.Seconds())
		for _, q := range [...]struct {
			suffix string
			q      float64
		}{{".p50", 0.50}, {".p90", 0.90}, {".p99", 0.99}} {
			v := 0.0
			if total > 0 {
				v = obs.QuantileFromBuckets(h.Bounds, window, q.q)
			}
			r.observe(h.Name+q.suffix, now, v)
		}
	}
}

// windowCounts computes the cumulative bucket counts of the window
// between two cumulative snapshots, clamping negative deltas (registry
// reset) to zero and re-monotonizing.
func windowCounts(cur, prev []int64) []int64 {
	out := make([]int64, len(cur))
	var run int64
	for i := range cur {
		d := cur[i]
		if i < len(prev) {
			d -= prev[i]
		}
		if d < run {
			d = run // cumulative counts never decrease
		}
		out[i] = d
		run = d
	}
	return out
}

// Start launches the background sampling loop: every Step it samples
// reg and, when engine is non-nil, evaluates the alert rules against the
// fresh samples. The returned stop halts it (obs.Every's contract).
func (r *Recorder) Start(reg *obs.Registry, engine *Engine) (stop func()) {
	return obs.Every(r.opts.Step, func(now time.Time) {
		r.SampleRegistry(reg, now)
		engine.Eval(now)
	})
}
