package obs

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrent hammers one registry from many goroutines — the
// same counters, gauges, and histograms, plus concurrent snapshot readers
// — and checks the totals. Run under -race this is the data-race proof
// for the hot per-block counting paths.
func TestRegistryConcurrent(t *testing.T) {
	const (
		workers = 8
		rounds  = 1000
	)
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				// Re-look up by name each time: the lookup path is part of
				// what must be race-free.
				r.Counter("test.ops").Inc()
				r.Counter("test.bytes").Add(64)
				r.Gauge("test.active").Add(1)
				r.Gauge("test.active").Add(-1)
				r.Gauge("test.high").Max(int64(w*rounds + i))
				r.Histogram("test.dur", DefaultDurationBuckets).Observe(0.01)
			}
		}(w)
	}
	// Concurrent readers while the writers run.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Snapshot()
				r.HistogramSnapshots()
			}
		}()
	}
	wg.Wait()

	const total = workers * rounds
	if got := r.Counter("test.ops").Value(); got != total {
		t.Errorf("counter test.ops = %d, want %d", got, total)
	}
	if got := r.Counter("test.bytes").Value(); got != total*64 {
		t.Errorf("counter test.bytes = %d, want %d", got, total*64)
	}
	if got := r.Gauge("test.active").Value(); got != 0 {
		t.Errorf("gauge test.active = %d, want 0", got)
	}
	if got := r.Gauge("test.high").Value(); got != total-1 {
		t.Errorf("gauge test.high = %d, want %d", got, total-1)
	}
	h := r.Histogram("test.dur", DefaultDurationBuckets)
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	if want := float64(total) * 0.01; h.Sum() < want*0.999 || h.Sum() > want*1.001 {
		t.Errorf("histogram sum = %g, want ~%g", h.Sum(), want)
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	c.Add(0)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 5, 50, 500} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 4 || len(counts) != 4 {
		t.Fatalf("bucket shape %v %v", bounds, counts)
	}
	// Cumulative: <=1: 1, <=10: 3, <=100: 4, +Inf: 5.
	want := []int64{1, 3, 4, 5}
	for i, w := range want {
		if counts[i] != w {
			t.Errorf("bucket %d (<=%g) = %d, want %d", i, bounds[i], counts[i], w)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// Degenerate inputs return the defined sentinel 0 — never NaN, which
	// would leak into JSON encoders and the exposition format.
	if v := QuantileFromBuckets(nil, nil, 0.5); v != 0 {
		t.Errorf("empty buckets: got %v, want 0", v)
	}
	// A histogram with no observations has all-zero cumulative counts.
	if v := QuantileFromBuckets([]float64{1, math.Inf(1)}, []int64{0, 0}, 0.5); v != 0 {
		t.Errorf("zero counts: got %v, want 0", v)
	}
	// Single (+Inf-only) bucket: no finite bound to interpolate against.
	if v := QuantileFromBuckets([]float64{math.Inf(1)}, []int64{7}, 0.5); v != 0 {
		t.Errorf("+Inf-only bucket: got %v, want 0", v)
	}
	// Single finite bucket: interpolate within [0, bound].
	got := QuantileFromBuckets([]float64{2, math.Inf(1)}, []int64{4, 4}, 0.5)
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("single finite bucket p50 = %v, want 1.0", got)
	}
	// Rank in the +Inf bucket clamps to the highest finite bound.
	got = QuantileFromBuckets([]float64{1, math.Inf(1)}, []int64{1, 10}, 0.99)
	if got != 1 {
		t.Errorf("+Inf-bucket rank = %v, want 1 (highest finite bound)", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		h.Observe(1.5) // all ten land in the (1,2] bucket
	}
	// rank(p50)=5 of 10 in-bucket → 1 + (2-1)*5/10 = 1.5
	bounds, counts := h.Buckets()
	if got := QuantileFromBuckets(bounds, counts, 0.5); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p50 = %v, want 1.5", got)
	}
	if got := QuantileFromBuckets(bounds, counts, 1.0); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("p100 = %v, want 2.0 (bucket upper edge)", got)
	}
}

// TestTracerConcurrent builds span trees from many goroutines while other
// goroutines snapshot and render them — the -race proof for the span
// store.
func TestTracerConcurrent(t *testing.T) {
	const (
		workers  = 8
		perChild = 10
	)
	tr := NewTracer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			root := tr.StartSpan(fmt.Sprintf("task-%d", w))
			root.SetAttr("worker", w)
			for i := 0; i < perChild; i++ {
				c := root.Child("phase")
				c.SetAttr("i", i)
				if i%3 == 0 {
					c.SetError(fmt.Errorf("boom %d", i))
				}
				c.End()
			}
			root.End()
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Spans()
				tr.TreeString()
				tr.Roots()
			}
		}()
	}
	wg.Wait()

	spans := tr.Spans()
	if want := workers * (perChild + 1); len(spans) != want {
		t.Fatalf("retained %d spans, want %d", len(spans), want)
	}
	roots := tr.Roots()
	if len(roots) != workers {
		t.Fatalf("%d roots, want %d", len(roots), workers)
	}
	for _, root := range roots {
		if !root.Ended {
			t.Errorf("root %s not ended", root.Name)
		}
		kids := tr.Children(root.ID)
		if len(kids) != perChild {
			t.Errorf("root %s has %d children, want %d", root.Name, len(kids), perChild)
		}
		errs := 0
		for _, k := range kids {
			if k.Err != "" {
				errs++
			}
		}
		if want := (perChild + 2) / 3; errs != want {
			t.Errorf("root %s has %d errored children, want %d", root.Name, errs, want)
		}
	}
	tree := tr.TreeString()
	if !strings.Contains(tree, "task-0") || !strings.Contains(tree, "  phase") {
		t.Errorf("TreeString missing expected structure:\n%s", tree)
	}
}

func TestTracerBoundedBuffer(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < maxSpans+100; i++ {
		tr.StartSpan("s").End()
	}
	if got := len(tr.Spans()); got != maxSpans {
		t.Fatalf("retained %d spans, want %d", got, maxSpans)
	}
}

// TestTracerRingKeepsStartOrder wraps the ring several times over and
// checks that what is retained is the newest maxSpans spans, oldest first,
// in Spans, Roots, Children and TreeString alike.
func TestTracerRingKeepsStartOrder(t *testing.T) {
	tr := NewTracer()
	const total = 2*maxSpans + 50
	root := tr.StartSpan("root")
	for i := 1; i < total; i++ {
		// Every third span is a child of the newest root, the rest are
		// roots: a root's children must stay grouped under it in order.
		if i%3 == 0 {
			root.Child(fmt.Sprintf("c%05d", i))
		} else {
			root = tr.StartSpan(fmt.Sprintf("r%05d", i))
		}
	}
	spans := tr.Spans()
	if len(spans) != maxSpans {
		t.Fatalf("retained %d spans, want %d", len(spans), maxSpans)
	}
	var want strings.Builder
	for k, s := range spans {
		i := total - maxSpans + k
		name, indent := fmt.Sprintf("r%05d", i), ""
		if i%3 == 0 {
			name, indent = fmt.Sprintf("c%05d", i), "  "
		}
		if s.Name != name || s.ID != int64(i+1) {
			t.Fatalf("Spans()[%d] = %s (id %d), want %s (id %d)", k, s.Name, s.ID, name, i+1)
		}
		// The oldest retained span may be a child whose root was evicted;
		// TreeString renders only spans reachable from a retained root.
		if k > 0 || indent == "" {
			fmt.Fprintf(&want, "%s%s (open)\n", indent, name)
		}
	}
	if got := tr.TreeString(); got != want.String() {
		t.Fatalf("TreeString is not in start order after the ring wrapped:\n%s", got[:min(len(got), 400)])
	}
}

// TestTracerFullRingAllocatesNoMore: once maxSpans spans are retained, a
// new span must cost what it costs on an empty tracer — the span itself —
// and not a copy of the whole buffer.
func TestTracerFullRingAllocatesNoMore(t *testing.T) {
	start := func(tr *Tracer) func() { return func() { tr.StartSpan("s").Child("c").End() } }
	empty := testing.AllocsPerRun(200, start(NewTracer()))
	full := NewTracer()
	for i := 0; i < maxSpans+10; i++ {
		full.StartSpan("fill")
	}
	if got := testing.AllocsPerRun(200, start(full)); got > empty {
		t.Fatalf("a span pair on a full tracer allocates %.0f objects, %.0f on an empty one", got, empty)
	}
}

func TestLoggerLevelsAndFields(t *testing.T) {
	var b bytes.Buffer
	l := NewLogger(&b, LevelInfo)
	l.Debug("hidden")
	l.Info("plain")
	child := l.With("session", 7, "dn", "/O=Grid/CN=alice")
	child.Warn("spaced msg", "bytes", 1024)
	out := b.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("debug line leaked through info level:\n%s", out)
	}
	if !strings.Contains(out, "level=info msg=plain") {
		t.Errorf("missing info line:\n%s", out)
	}
	if !strings.Contains(out, `msg="spaced msg" session=7 dn="/O=Grid/CN=alice" bytes=1024`) {
		t.Errorf("missing structured warn line:\n%s", out)
	}
}

// TestNilSafety exercises every accessor off a nil bundle, logger, span,
// and metric — the "call sites never guard" contract.
func TestNilSafety(t *testing.T) {
	var o *Obs
	o.Logger().Info("into the void", "k", "v")
	o.Logger().With("a", 1).Debug("still fine")
	o.Registry().Counter("nil.test").Inc()
	o.Tracer().StartSpan("nil-span").Child("kid").End()

	var span *Span
	span.SetAttr("k", "v")
	span.SetError(fmt.Errorf("x"))
	span.End()
	if span.Child("kid") != nil {
		t.Error("nil span Child should be nil")
	}

	var c *Counter
	c.Inc()
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]Level{
		"debug": LevelDebug, "INFO": LevelInfo, "Warning": LevelWarn, "error": LevelError,
	} {
		got, ok := ParseLevel(in)
		if !ok || got != want {
			t.Errorf("ParseLevel(%q) = %v,%v", in, got, ok)
		}
	}
	if _, ok := ParseLevel("loud"); ok {
		t.Error("ParseLevel should reject unknown names")
	}
}
