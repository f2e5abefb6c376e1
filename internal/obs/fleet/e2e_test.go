package fleet_test

// End-to-end acceptance for the fleet observability plane: a dozen
// in-process "instances" (each with its own obs bundle, spans, and
// exemplar-carrying histograms) push their snapshots over real HTTP
// through the admin-mounted federation handler; the test then asserts
// the three tentpole behaviors — fleet quantiles computed from merged
// buckets match a pooled-observation reference exactly, a silent
// instance drives the stale alert through firing and back to resolved,
// and the firing transition captures a diagnostic bundle whose exemplar
// trace ids resolve in a collector fed the instances' span exports, and
// whose spans.json is the head's own tracer.

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/collector"
	"gridftp.dev/instant/internal/obs/fleet"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// fleetClock is a mutex-guarded fake clock shared by the test and the
// service's HTTP handlers.
type fleetClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fleetClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fleetClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	return c.now
}

// instanceSim is one simulated fleet member: its own obs bundle, a
// completed transfer span per push round, and latency observations that
// carry the span's trace id as exemplar.
type instanceSim struct {
	name string
	o    *obs.Obs
	durs []float64
}

func (in *instanceSim) observe(col *collector.Collector) {
	sp := in.o.Tracer().StartSpan("gridftp.retr")
	sp.SetAttr("endpoint", in.name)
	traceID := sp.TraceID.String()
	h := in.o.Registry().Histogram("gridftp.server.transfer_seconds", obs.DefaultDurationBuckets)
	for _, d := range in.durs {
		h.ObserveExemplar(d, traceID)
	}
	in.o.Registry().Counter("gridftp.server.bytes_in").Add(int64(1 << 20))
	in.o.Registry().Gauge("transfer.active").Set(1)
	sp.End()
	col.Add(collector.FromInfos(in.name, in.o.Tracer().Spans())...)
}

func (in *instanceSim) push(t *testing.T, url string) {
	t.Helper()
	if err := fleet.Push(url+"/v1/metrics", fleet.Collect(in.name, in.o, nil)); err != nil {
		t.Fatalf("push %s: %v", in.name, err)
	}
}

func alertState(eng *tsdb.Engine, rule string) tsdb.State {
	for _, a := range eng.Alerts() {
		if a.Rule.Name == rule {
			return a.State
		}
	}
	return tsdb.StateInactive
}

func TestFleetEndToEnd(t *testing.T) {
	clock := &fleetClock{now: time.Unix(1_700_000_000, 0)}
	// col is what an operator stitches traces in: the instances' span
	// exports, added by hand. The head holds no collector.
	col := collector.New()
	headObs := obs.Nop()
	headSpan := headObs.Tracer().StartSpan("fleet.head.work")
	headSpan.End()

	svc := fleet.New(fleet.Options{
		StaleAfter: 3 * time.Second,
		Obs:        headObs,
		Now:        clock.Now,
		Bundle: fleet.BundleOptions{
			Dir:             t.TempDir(),
			ProfileDuration: 20 * time.Millisecond,
		},
	})

	// The federation plane mounts into the admin server exactly as the
	// daemons wire it; the pushes below travel through real HTTP.
	ts := httptest.NewServer(admin.New(headObs, admin.Planes{Fleet: svc.Handler()}).Handler())
	defer ts.Close()

	const n = 12
	instances := make([]*instanceSim, n)
	var pooled []float64
	for i := 0; i < n; i++ {
		// Distinct latency profiles per instance: instance i observes
		// durations spread across the default buckets, so the fleet
		// quantiles genuinely depend on cross-instance merging.
		durs := []float64{
			0.001 * float64(i+1),
			0.01 * float64(i+1),
			0.1 * float64(i+1),
			0.5,
		}
		pooled = append(pooled, durs...)
		instances[i] = &instanceSim{
			name: "ep-" + string(rune('a'+i)),
			o:    obs.Nop(),
			durs: durs,
		}
	}

	pushAll := func(skip int) {
		for i, in := range instances {
			if i == skip {
				continue
			}
			in.push(t, ts.URL)
		}
	}

	for _, in := range instances {
		in.observe(col)
	}
	pushAll(-1)
	svc.Tick(clock.Now())
	pushAll(-1)
	svc.Tick(clock.Advance(time.Second))

	insts := svc.Instances()
	if len(insts) != n {
		t.Fatalf("registry has %d instances, want %d", len(insts), n)
	}
	for _, in := range insts {
		if !in.Up || in.Pushes != 2 {
			t.Fatalf("instance %s: up=%v pushes=%d, want up with 2 pushes", in.Name, in.Up, in.Pushes)
		}
	}

	// Tentpole 1: the fleet histogram's quantiles must equal a histogram
	// that observed every instance's stream directly — same buckets, so
	// the bucket-wise merge is exact, not approximate.
	ref := obs.Nop()
	refHist := ref.Registry().Histogram("ref", obs.DefaultDurationBuckets)
	for _, d := range pooled {
		refHist.Observe(d)
	}
	var want obs.HistogramSnapshot
	for _, h := range ref.Registry().HistogramSnapshots() {
		if h.Name == "ref" {
			want = h
		}
	}
	var got obs.HistogramSnapshot
	for _, h := range svc.Aggregate().Histograms {
		if h.Name == "fleet.gridftp_server_transfer_seconds" {
			got = h
		}
	}
	if got.Count != want.Count {
		t.Fatalf("fleet histogram count %d, pooled reference %d", got.Count, want.Count)
	}
	for _, q := range []struct {
		name     string
		got, ref float64
	}{{"p50", got.P50, want.P50}, {"p90", got.P90, want.P90}, {"p99", got.P99, want.P99}} {
		if math.Abs(q.got-q.ref) > 1e-9 {
			t.Errorf("fleet %s = %v, pooled reference %v", q.name, q.got, q.ref)
		}
	}
	if len(got.Exemplars) == 0 {
		t.Fatal("fleet histogram lost its exemplars in the merge")
	}

	// The text rendering of the aggregate carries OpenMetrics exemplar
	// annotations a fleet dashboard can follow to the collector.
	resp, err := http.Get(ts.URL + "/fleet/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(text), "fleet_gridftp_server_transfer_seconds_bucket") ||
		!strings.Contains(string(text), `# {trace_id="`) {
		t.Fatalf("/fleet/metrics missing merged histogram or exemplars:\n%.600s", text)
	}

	// Tentpole 2: silence one instance; the stale alert must walk
	// inactive → firing as the For window elapses, and the firing
	// transition must capture a diagnostic bundle.
	const quiet = 0
	firedAt := -1
	for tick := 0; tick < 12; tick++ {
		pushAll(quiet)
		svc.Tick(clock.Advance(time.Second))
		if alertState(svc.Engine(), "fleet-instance-stale") == tsdb.StateFiring {
			firedAt = tick
			break
		}
	}
	if firedAt < 0 {
		t.Fatalf("fleet-instance-stale never fired; alerts: %+v", svc.Engine().Alerts())
	}
	stale := 0
	for _, in := range svc.Instances() {
		if in.Stale {
			stale++
		}
	}
	if stale != 1 {
		t.Fatalf("%d stale instances while alert firing, want 1", stale)
	}

	// Tentpole 3: the bundle appears on disk (capture is asynchronous;
	// the profile alone takes ProfileDuration) with exemplar trace ids
	// that resolve in the collector fed the instances' exports, and a
	// spans.json holding the head's own spans.
	var bundles []fleet.BundleMeta
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if bundles = svc.Bundler().Bundles(); len(bundles) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(bundles) == 0 {
		t.Fatal("no diagnostic bundle captured after the stale alert fired")
	}
	meta := bundles[0]
	if meta.Rule != "fleet-instance-stale" {
		t.Errorf("bundle rule = %q, want fleet-instance-stale", meta.Rule)
	}
	if len(meta.ExemplarTraceIDs) == 0 {
		t.Fatal("bundle carries no exemplar trace ids")
	}
	tr := col.Stitch(meta.ExemplarTraceIDs[0])
	if tr == nil || len(tr.Spans) == 0 {
		t.Fatalf("exemplar trace %s does not resolve in the collector", meta.ExemplarTraceIDs[0])
	}
	found := false
	for _, f := range meta.Files {
		if f == "spans.json" {
			found = true
		}
	}
	if !found {
		t.Errorf("bundle files %v missing spans.json", meta.Files)
	}
	if resp, err := http.Get(ts.URL + "/fleet/bundles/" + meta.Name + "/spans.json"); err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), headSpan.TraceID.String()) || !strings.Contains(string(body), `"fleet-head"`) {
			t.Errorf("spans.json does not hold the head's own span %s:\n%.400s", headSpan.TraceID, body)
		}
	} else {
		t.Errorf("GET bundle spans.json: %v", err)
	}
	if resp, err := http.Get(ts.URL + "/fleet/bundles/" + meta.Name + "/meta.json"); err == nil {
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET bundle meta.json: %s", resp.Status)
		}
		resp.Body.Close()
	} else {
		t.Errorf("GET bundle meta.json: %v", err)
	}

	// Recovery: the instance pushes again and the alert resolves.
	resolved := false
	for tick := 0; tick < 6; tick++ {
		pushAll(-1)
		svc.Tick(clock.Advance(time.Second))
		if alertState(svc.Engine(), "fleet-instance-stale") == tsdb.StateInactive {
			resolved = true
			break
		}
	}
	if !resolved {
		t.Fatalf("fleet-instance-stale did not resolve after the instance returned; alerts: %+v",
			svc.Engine().Alerts())
	}
	for _, in := range svc.Instances() {
		if in.Stale {
			t.Fatalf("instance %s still stale after recovery", in.Name)
		}
	}
}
