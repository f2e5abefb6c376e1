package fleet

import (
	"math"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
)

func histSnap(name string, bounds []float64, values []float64) obs.HistogramSnapshot {
	r := obs.NewRegistry()
	h := r.Histogram(name, bounds)
	for _, v := range values {
		h.Observe(v)
	}
	for _, s := range r.HistogramSnapshots() {
		if s.Name == name {
			return s
		}
	}
	return obs.HistogramSnapshot{}
}

func TestMergeMatchesPooledObservations(t *testing.T) {
	// Same bounds across instances: the merge must equal a histogram that
	// observed the pooled stream directly — counts, sum, and quantiles.
	bounds := obs.DefaultDurationBuckets
	a := []float64{0.002, 0.03, 0.2, 1.5}
	b := []float64{0.004, 0.07, 3, 8, 20}
	merged := MergeHistograms("h", histSnap("h", bounds, a), histSnap("h", bounds, b))
	pooled := histSnap("h", bounds, append(append([]float64(nil), a...), b...))

	if merged.Count != pooled.Count || math.Abs(merged.Sum-pooled.Sum) > 1e-9 {
		t.Fatalf("merged count/sum %d/%v, pooled %d/%v", merged.Count, merged.Sum, pooled.Count, pooled.Sum)
	}
	if len(merged.Counts) != len(pooled.Counts) {
		t.Fatalf("bounds diverged: %v vs %v", merged.Bounds, pooled.Bounds)
	}
	for i := range merged.Counts {
		if merged.Counts[i] != pooled.Counts[i] {
			t.Errorf("bucket %d: merged %d, pooled %d", i, merged.Counts[i], pooled.Counts[i])
		}
	}
	for _, q := range []struct{ m, p float64 }{{merged.P50, pooled.P50}, {merged.P90, pooled.P90}, {merged.P99, pooled.P99}} {
		if math.Abs(q.m-q.p) > 1e-9 {
			t.Errorf("quantile mismatch: merged %v, pooled %v", q.m, q.p)
		}
	}
}

func TestMergeMismatchedBounds(t *testing.T) {
	// Instances with different bucket layouts: the union must preserve
	// every input's own boundary so no count crosses a boundary it was
	// recorded under.
	a := histSnap("h", []float64{1, 10}, []float64{0.5, 5, 50})
	b := histSnap("h", []float64{2, 20}, []float64{1.5, 15, 150})
	m := MergeHistograms("h", a, b)

	wantBounds := []float64{1, 2, 10, 20, math.Inf(1)}
	if len(m.Bounds) != len(wantBounds) {
		t.Fatalf("bounds = %v, want %v", m.Bounds, wantBounds)
	}
	for i := range wantBounds {
		if m.Bounds[i] != wantBounds[i] {
			t.Fatalf("bounds = %v, want %v", m.Bounds, wantBounds)
		}
	}
	// Cumulative: ≤1: {0.5}; ≤2: +{1.5}; ≤10: +{5}; ≤20: +{15}; +Inf: +{50,150}.
	wantCounts := []int64{1, 2, 3, 4, 6}
	for i := range wantCounts {
		if m.Counts[i] != wantCounts[i] {
			t.Fatalf("counts = %v, want %v", m.Counts, wantCounts)
		}
	}
	if m.Count != 6 {
		t.Errorf("count = %d, want 6", m.Count)
	}
}

func TestMergeEmptyHistograms(t *testing.T) {
	empty := obs.HistogramSnapshot{Name: "h"}
	loaded := histSnap("h", []float64{1}, []float64{0.5})

	m := MergeHistograms("h", empty, loaded, empty)
	if m.Count != 1 || len(m.Bounds) != 2 {
		t.Fatalf("empty+loaded merge: %+v", m)
	}

	m = MergeHistograms("h", empty, empty)
	if m.Count != 0 || len(m.Bounds) != 1 || !math.IsInf(m.Bounds[0], 1) {
		t.Fatalf("all-empty merge: %+v", m)
	}
	if m.P50 != 0 || m.P99 != 0 {
		t.Errorf("all-empty quantiles: %+v", m)
	}
}

func TestMergeTornExportRemonotonized(t *testing.T) {
	// Non-monotone cumulative counts (a torn concurrent export) must not
	// produce negative bucket deltas.
	torn := obs.HistogramSnapshot{
		Name:   "h",
		Bounds: []float64{1, 2, math.Inf(1)},
		Counts: []int64{5, 3, 7}, // dips at index 1
		Count:  7, Sum: 9,
	}
	m := MergeHistograms("h", torn)
	var prev int64 = -1
	for i, c := range m.Counts {
		if c < prev {
			t.Fatalf("merged counts not monotone at %d: %v", i, m.Counts)
		}
		prev = c
	}
	if m.Count != 7 {
		t.Errorf("count = %d, want 7 (re-monotonized total)", m.Count)
	}
}

func TestMergeKeepsNewestExemplar(t *testing.T) {
	early := time.Unix(1000, 0)
	late := time.Unix(2000, 0)
	a := obs.HistogramSnapshot{
		Name: "h", Bounds: []float64{1, math.Inf(1)}, Counts: []int64{1, 1},
		Exemplars: []obs.Exemplar{{TraceID: "aaaa", Value: 0.5, Time: early}, {}},
	}
	b := obs.HistogramSnapshot{
		Name: "h", Bounds: []float64{1, math.Inf(1)}, Counts: []int64{2, 3},
		Exemplars: []obs.Exemplar{{TraceID: "bbbb", Value: 0.7, Time: late}, {TraceID: "cccc", Value: 9}},
	}
	m := MergeHistograms("h", a, b)
	if m.Exemplars[0].TraceID != "bbbb" {
		t.Errorf("bucket 0 exemplar = %+v, want the newer bbbb", m.Exemplars[0])
	}
	// A timestampless exemplar still beats no exemplar at all.
	if m.Exemplars[1].TraceID != "cccc" {
		t.Errorf("bucket 1 exemplar = %+v, want cccc", m.Exemplars[1])
	}
}

func TestIngestCounterResetAccumulates(t *testing.T) {
	// An instance restart (new process.start_time_seconds, counters back
	// to zero) must not make fleet counters go backwards: prior epochs
	// fold into the base and the fleet sum stays monotone.
	now := time.Unix(10000, 0)
	s := New(Options{Obs: obs.Nop(), Now: func() time.Time { return now }})

	snap := func(start, bytes int64) expfmt.Snapshot {
		return expfmt.Snapshot{Metrics: []obs.Metric{
			{Name: "process.start_time_seconds", Kind: "gauge", Value: start},
			{Name: "gridftp.server.bytes_in", Kind: "counter", Value: bytes},
		}}
	}
	if err := s.Ingest("", Envelope{Instance: "ep1", Metrics: snap(100, 500)}, now); err != nil {
		t.Fatal(err)
	}
	s.Tick(now)
	now = now.Add(time.Second)
	// Restart: new start time, counter reset to 80.
	if err := s.Ingest("", Envelope{Instance: "ep1", Metrics: snap(200, 80)}, now); err != nil {
		t.Fatal(err)
	}
	s.Tick(now)

	agg := s.Aggregate()
	var got int64 = -1
	for _, m := range agg.Metrics {
		if m.Name == "fleet.gridftp_server_bytes_in" {
			got = m.Value
		}
	}
	if got != 580 {
		t.Fatalf("fleet counter after restart = %d, want 580 (500 folded + 80 new epoch)", got)
	}
	insts := s.Instances()
	if len(insts) != 1 || insts[0].Restarts != 1 {
		t.Fatalf("instances = %+v, want one with 1 restart", insts)
	}

	// The fleet rate derivation must see the monotone sum: 80 bytes over
	// 1s, never a negative clamped to zero-with-a-spike.
	pts := s.Recorder().Query("fleet.gridftp_server_bytes_in.rate", time.Time{}, 0)
	if len(pts) != 1 || math.Abs(pts[0].V-80) > 1e-9 {
		t.Fatalf("rate points = %+v, want one point at 80 B/s", pts)
	}
}

func TestIngestCounterDecreaseWithoutIdentity(t *testing.T) {
	// Exporters without process.start_time_seconds still get restart
	// detection from a counter running backwards.
	now := time.Unix(5000, 0)
	s := New(Options{Obs: obs.Nop(), Now: func() time.Time { return now }})
	snap := func(v int64) expfmt.Snapshot {
		return expfmt.Snapshot{Metrics: []obs.Metric{
			{Name: "transfer.bytes_total", Kind: "counter", Value: v},
		}}
	}
	s.Ingest("", Envelope{Instance: "ep", Metrics: snap(900)}, now)
	s.Ingest("", Envelope{Instance: "ep", Metrics: snap(40)}, now.Add(time.Second)) // went backwards
	s.Tick(now.Add(time.Second))
	for _, m := range s.Aggregate().Metrics {
		if m.Name == "fleet.transfer_bytes_total" && m.Value != 940 {
			t.Fatalf("fleet counter = %d, want 940", m.Value)
		}
	}
	if s.Instances()[0].Restarts != 1 {
		t.Fatalf("restart not detected from counter decrease")
	}
}

func TestOutlierRatio(t *testing.T) {
	cases := []struct {
		rates []float64
		want  float64
	}{
		{nil, 0},
		{[]float64{1, 2}, 0},            // too few for a median
		{[]float64{10, 10, 10}, 0},      // healthy
		{[]float64{0, 10, 10, 10}, 1},   // one dead instance
		{[]float64{8, 10, 10, 10}, 0.2}, // mild lag
		{[]float64{0, 0, 0}, 0},         // idle fleet: no outlier signal
		{[]float64{20, 10, 10, 10}, 0},  // min == median
	}
	for _, c := range cases {
		if got := outlierRatio(c.rates); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("outlierRatio(%v) = %v, want %v", c.rates, got, c.want)
		}
	}
}
