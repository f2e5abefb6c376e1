package expfmt

import (
	"math"
	"strings"
	"testing"

	"gridftp.dev/instant/internal/obs"
)

func TestSanitizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"gridftp.server.bytes_in", "gridftp_server_bytes_in"},
		{"already_fine:colon", "already_fine:colon"},
		{"9lives", "_9lives"},
		{"with-dash and space", "with_dash_and_space"},
		{"", "_"},
		{"a.b{c}", "a_b_c_"}, // instances are split off before sanitizing
	}
	for _, c := range cases {
		if got := SanitizeName(c.in); got != c.want {
			t.Errorf("SanitizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWriteTextHistogram(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("gridftp.server.sessions").Add(3)
	r.Gauge(obs.Name("netsim.link.bytes", "siteA|siteB")).Set(42)
	h := r.Histogram("gridftp.server.command_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := WriteText(&b, r); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	for _, want := range []string{
		"# TYPE gridftp_server_sessions counter",
		"gridftp_server_sessions 3",
		"# TYPE netsim_link_bytes gauge",
		`netsim_link_bytes{instance="siteA|siteB"} 42`,
		"# TYPE gridftp_server_command_seconds histogram",
		`gridftp_server_command_seconds_bucket{le="+Inf"} 5`,
		"gridftp_server_command_seconds_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	// Bucket series must be cumulative (monotone non-decreasing) and end
	// at the total count in +Inf.
	var last int64 = -1
	buckets := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "gridftp_server_command_seconds_bucket") {
			continue
		}
		buckets++
		_, _, v, _, err := parseSample(line)
		if err != nil {
			t.Fatalf("parseSample(%q): %v", line, err)
		}
		if int64(v) < last {
			t.Errorf("bucket counts not cumulative: %d after %d in %q", int64(v), last, line)
		}
		last = int64(v)
	}
	if buckets != 4 { // 3 finite bounds + the +Inf bucket
		t.Errorf("got %d bucket lines, want 4", buckets)
	}
	if last != 5 {
		t.Errorf("+Inf bucket = %d, want total count 5", last)
	}
}

func TestTypeHeadersContiguous(t *testing.T) {
	// "a.b2" sorts lexically between "a.b" and "a.b{x}"; the exposition
	// must still keep both a_b series under one TYPE header.
	r := obs.NewRegistry()
	r.Counter("a.b").Inc()
	r.Counter("a.b2").Inc()
	r.Counter(obs.Name("a.b", "x")).Inc()
	var b strings.Builder
	if err := WriteText(&b, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	seen := make(map[string]bool)
	current := ""
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			name := strings.Fields(line)[2]
			if seen[name] {
				t.Fatalf("TYPE header for %s repeated — series not contiguous:\n%s", name, b.String())
			}
			seen[name] = true
			current = name
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if name != current {
			t.Errorf("sample %q under TYPE header %q", line, current)
		}
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	// Degenerate inputs return the defined sentinel 0 — never NaN, which
	// would leak into JSON encoders and the exposition format.
	if v := obs.QuantileFromBuckets(nil, nil, 0.5); v != 0 {
		t.Errorf("empty buckets: got %v, want 0", v)
	}
	// A histogram with no observations has all-zero cumulative counts.
	if v := obs.QuantileFromBuckets([]float64{1, math.Inf(1)}, []int64{0, 0}, 0.5); v != 0 {
		t.Errorf("zero counts: got %v, want 0", v)
	}
	// Single (+Inf-only) bucket: no finite bound to interpolate against.
	if v := obs.QuantileFromBuckets([]float64{math.Inf(1)}, []int64{7}, 0.5); v != 0 {
		t.Errorf("+Inf-only bucket: got %v, want 0", v)
	}
	// Single finite bucket: interpolate within [0, bound].
	got := obs.QuantileFromBuckets([]float64{2, math.Inf(1)}, []int64{4, 4}, 0.5)
	if math.Abs(got-1.0) > 1e-9 {
		t.Errorf("single finite bucket p50 = %v, want 1.0", got)
	}
	// Rank in the +Inf bucket clamps to the highest finite bound.
	got = obs.QuantileFromBuckets([]float64{1, math.Inf(1)}, []int64{1, 10}, 0.99)
	if got != 1 {
		t.Errorf("+Inf-bucket rank = %v, want 1 (highest finite bound)", got)
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("q", []float64{1, 2, 4})
	for i := 0; i < 10; i++ {
		h.Observe(1.5) // all ten land in the (1,2] bucket
	}
	// rank(p50)=5 of 10 in-bucket → 1 + (2-1)*5/10 = 1.5
	bounds, counts := h.Buckets()
	if got := obs.QuantileFromBuckets(bounds, counts, 0.5); math.Abs(got-1.5) > 1e-9 {
		t.Errorf("p50 = %v, want 1.5", got)
	}
	if got := obs.QuantileFromBuckets(bounds, counts, 1.0); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("p100 = %v, want 2.0 (bucket upper edge)", got)
	}
}

func TestRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("transfer.tasks_total").Add(7)
	r.Gauge("gridftp.server.active_sessions").Set(2)
	r.Counter(obs.Name("usage.packets", "siteA")).Add(9)
	h := r.Histogram("gridftp.server.command_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := WriteText(&b, r); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseText(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	byName := make(map[string]obs.Metric)
	for _, m := range parsed {
		byName[m.Name] = m
	}
	check := func(name, kind string, value int64) {
		t.Helper()
		m, ok := byName[name]
		if !ok {
			t.Fatalf("metric %q missing after round trip (have %v)", name, parsed)
		}
		if m.Kind != kind || m.Value != value {
			t.Errorf("%s = {%s %d}, want {%s %d}", name, m.Kind, m.Value, kind, value)
		}
	}
	check("transfer_tasks_total", "counter", 7)
	check("gridftp_server_active_sessions", "gauge", 2)
	check(obs.Name("usage_packets", "siteA"), "counter", 9)
	check("gridftp_server_command_seconds", "histogram", 3)
	hm := byName["gridftp_server_command_seconds"]
	if math.Abs(hm.Sum-0.555) > 1e-9 {
		t.Errorf("histogram sum = %v, want 0.555", hm.Sum)
	}
	if hm.P50 <= 0 || hm.P90 <= 0 || hm.P99 <= 0 {
		t.Errorf("histogram quantiles not recomputed: %+v", hm)
	}
}

func TestExemplarRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("transfer.seconds", []float64{0.1, 1, 10})
	h.ObserveExemplar(0.05, "4bf92f3577b34da6a3ce929d0e0e4736")
	h.ObserveExemplar(5.0, "00f067aa0ba902b7aabbccddeeff0011")
	h.Observe(0.5) // untraced: bucket keeps no exemplar

	var b strings.Builder
	if err := WriteText(&b, r); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	if !strings.Contains(text, `# {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.05`) {
		t.Fatalf("exemplar not written:\n%s", text)
	}

	snap, err := ParseTextSnapshot(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseTextSnapshot: %v", err)
	}
	if len(snap.Histograms) != 1 {
		t.Fatalf("histograms = %+v, want 1", snap.Histograms)
	}
	hs := snap.Histograms[0]
	if hs.Count != 3 || len(hs.Bounds) != 4 || len(hs.Exemplars) != 4 {
		t.Fatalf("parsed histogram shape wrong: %+v", hs)
	}
	// Bucket 0 holds 0.05's exemplar, bucket 2 (1,10] holds 5.0's,
	// bucket 1 has none (only an untraced observation landed there).
	if hs.Exemplars[0].TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || hs.Exemplars[0].Value != 0.05 {
		t.Errorf("bucket 0 exemplar = %+v", hs.Exemplars[0])
	}
	if hs.Exemplars[2].TraceID != "00f067aa0ba902b7aabbccddeeff0011" {
		t.Errorf("bucket 2 exemplar = %+v", hs.Exemplars[2])
	}
	if hs.Exemplars[1].TraceID != "" {
		t.Errorf("bucket 1 should have no exemplar, got %+v", hs.Exemplars[1])
	}
	if hs.Exemplars[0].Time.IsZero() {
		t.Errorf("exemplar timestamp not round-tripped")
	}

	// A plain ParseText consumer sees the same totals and ignores
	// exemplars entirely.
	metrics, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText with exemplars: %v", err)
	}
	if len(metrics) != 1 || metrics[0].Value != 3 {
		t.Errorf("ParseText = %+v, want one histogram with count 3", metrics)
	}
}

func TestParseSampleExemplarWithoutLabels(t *testing.T) {
	// An unlabeled sample followed by an exemplar must not mistake the
	// exemplar's brace block for a label set.
	name, labels, v, ex, err := parseSample(`foo_total 5 # {trace_id="abcd"} 0.3 1712000000.250`)
	if err != nil {
		t.Fatal(err)
	}
	if name != "foo_total" || len(labels) != 0 || v != 5 {
		t.Errorf("parsed %q %v %v", name, labels, v)
	}
	if ex == nil || ex.TraceID != "abcd" || ex.Value != 0.3 || ex.Time.IsZero() {
		t.Errorf("exemplar = %+v", ex)
	}
	// Malformed exemplars are dropped, never fatal.
	_, _, _, ex, err = parseSample(`bar_total 2 # {oops} nope`)
	if err != nil || ex != nil {
		t.Errorf("malformed exemplar: ex=%+v err=%v", ex, err)
	}
}
