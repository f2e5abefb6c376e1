package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry is a concurrency-safe collection of named metrics. Metric
// handles are created on first use and cached; hot paths (per-block byte
// counting) touch only an atomic after the first lookup.
//
// Names are dotted paths ("gridftp.server.bytes_in"); an optional
// instance label is appended in braces ("netsim.link.bytes{siteA|siteB}")
// so per-link / per-endpoint series stay separate without a full label
// system.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	funcs      map[string]func() int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
		funcs:      make(map[string]func() int64),
	}
}

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (negative n is ignored).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 (queue depth, active sessions).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (use negative deltas to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max raises the gauge to v if v is greater (high-watermark tracking).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets. Bounds are upper
// bucket edges (sorted ascending); observations above the last bound land
// in the implicit +Inf bucket. All updates are atomic per bucket, so
// concurrent Observe calls never lock.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     atomic.Uint64 // float64 bits, CAS-accumulated
}

// DefaultDurationBuckets suits millisecond-scale simulated operations
// (values observed in seconds).
var DefaultDurationBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Int64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns (upper bound, cumulative count) pairs including the
// +Inf bucket.
func (h *Histogram) Buckets() ([]float64, []int64) {
	if h == nil {
		return nil, nil
	}
	bounds := append(append([]float64(nil), h.bounds...), math.Inf(1))
	counts := make([]int64, len(h.buckets))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		counts[i] = cum
	}
	return bounds, counts
}

// QuantileFromBuckets estimates the q-quantile (0..1) from cumulative
// bucket data (bounds ascending, the last typically +Inf; counts
// cumulative, parallel to bounds) by linear interpolation inside the
// bucket the rank falls in — the same estimate Prometheus's
// histogram_quantile computes; the highest finite bound is returned when
// the rank lands in the +Inf bucket. It is the one estimator behind
// snapshots and the recorder's windowed quantiles.
// Malformed input and a zero observation count return the defined
// sentinel 0 rather than NaN, so quantiles can feed JSON encoders, the
// exposition format and alert rules without a NaN guard at every
// consumer.
func QuantileFromBuckets(bounds []float64, counts []int64, q float64) float64 {
	if len(bounds) == 0 || len(bounds) != len(counts) {
		return 0
	}
	total := counts[len(counts)-1]
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	i := 0
	for i < len(counts)-1 && float64(counts[i]) < rank {
		i++
	}
	if math.IsInf(bounds[i], 1) {
		// Rank lands above every finite bound: the best defensible point
		// estimate is the highest finite bound (Prometheus convention).
		if i == 0 {
			return 0
		}
		return bounds[i-1]
	}
	lower, prev := 0.0, int64(0)
	if i > 0 {
		lower = bounds[i-1]
		prev = counts[i-1]
	}
	inBucket := counts[i] - prev
	if inBucket <= 0 {
		return bounds[i]
	}
	return lower + (bounds[i]-lower)*(rank-float64(prev))/float64(inBucket)
}

// HistogramSnapshot is the full state of one histogram: cumulative
// buckets (including +Inf), count and sum.
type HistogramSnapshot struct {
	Name   string
	Bounds []float64 // ascending; last is +Inf
	Counts []int64   // cumulative, parallel to Bounds
	Count  int64
	Sum    float64
}

// HistogramSnapshots returns every histogram's full state, sorted by
// name. Counters and gauges are covered by Snapshot; this is the
// bucket-level view the exposition and the recorder's windowed quantiles
// need.
func (r *Registry) HistogramSnapshots() []HistogramSnapshot {
	r.mu.Lock()
	hs := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hs[name] = h
	}
	r.mu.Unlock()
	out := make([]HistogramSnapshot, 0, len(hs))
	for name, h := range hs {
		bounds, counts := h.Buckets()
		out = append(out, HistogramSnapshot{
			Name: name, Bounds: bounds, Counts: counts, Count: h.Count(), Sum: h.Sum(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Name composes a metric name with an instance label, e.g.
// Name("netsim.link.bytes", "siteA|siteB").
func Name(base, instance string) string {
	if instance == "" {
		return base
	}
	return base + "{" + instance + "}"
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram. The bounds
// of the first creation win; later calls with different bounds get the
// existing histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// GaugeFunc registers a gauge whose value is computed by fn at snapshot
// time — the mechanism behind derived series like process.uptime_seconds
// that have no natural Set() call site. fn must be safe for concurrent
// use and is called outside the registry lock. Re-registering a name
// replaces the function; the name must not collide with a regular
// counter/gauge/histogram or both would be exported.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.funcs == nil {
		r.funcs = make(map[string]func() int64)
	}
	r.funcs[name] = fn
}

// Metric is one exported sample in a snapshot.
type Metric struct {
	Name string
	Kind string // "counter", "gauge", "histogram"
	// Value carries the counter/gauge value, or the histogram count.
	Value int64
	// Sum is the histogram value sum (zero for counters/gauges).
	Sum float64
	// P50/P90/P99 are interpolated quantile estimates, set for histograms
	// with at least one observation (zero otherwise, so snapshots stay
	// JSON-encodable).
	P50, P90, P99 float64
}

// Snapshot returns all metrics sorted by name.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hists[name] = h
	}
	funcs := make(map[string]func() int64, len(r.funcs))
	for name, fn := range r.funcs {
		funcs[name] = fn
	}
	r.mu.Unlock()
	// Gauge functions run outside the lock so they may themselves read
	// metrics without deadlocking.
	for name, fn := range funcs {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: fn()})
	}
	for name, h := range hists {
		m := Metric{Name: name, Kind: "histogram", Value: h.Count(), Sum: h.Sum()}
		if m.Value > 0 {
			bounds, counts := h.Buckets()
			m.P50 = QuantileFromBuckets(bounds, counts, 0.50)
			m.P90 = QuantileFromBuckets(bounds, counts, 0.90)
			m.P99 = QuantileFromBuckets(bounds, counts, 0.99)
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
