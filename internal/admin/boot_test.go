package admin

import (
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/transfer"
	"gridftp.dev/instant/internal/world"
)

// bootWith boots a daemon from a command line, without the socket.
func bootWith(t *testing.T, name string, args ...string) *Daemon {
	t.Helper()
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	b := Flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return b.boot()
}

// documentedRoutes reads the admin plane's route table out of
// internal/obs/README.md: the first backticked path of every row.
func documentedRoutes(t *testing.T) []string {
	t.Helper()
	readme, err := os.ReadFile("../obs/README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "## The admin plane")
	if !ok {
		t.Fatal("internal/obs/README.md has no admin plane section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	var routes []string
	for _, m := range regexp.MustCompile("(?m)^\\| `(/[^`]*)` \\|").FindAllStringSubmatch(section, -1) {
		routes = append(routes, m[1])
	}
	if len(routes) < 9 {
		t.Fatalf("found only %d routes in the README's admin table: %v", len(routes), routes)
	}
	return routes
}

// TestBootMountsEveryDocumentedRoute: a daemon booted with every plane
// answers every route the README documents — none says "not enabled" — and
// its index page lists them. (gridftp-server used to assemble its planes by
// hand and forgot the stream registry: /debug/streams answered 503 for ever
// on the one daemon that is all data path.)
func TestBootMountsEveryDocumentedRoute(t *testing.T) {
	d := bootWith(t, "every-plane", "-admin", "unused", "-stall-timeout", "30s")
	defer d.Close()
	d.Ready()
	h := d.Admin.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w
	}
	index := get("/").Body.String()
	for _, path := range documentedRoutes(t) {
		if w := get(path); w.Code == http.StatusServiceUnavailable || w.Code == http.StatusNotFound {
			t.Errorf("GET %s = %d %q", path, w.Code, strings.TrimSpace(w.Body.String()))
		}
		if !strings.Contains(index, "  "+path+" ") {
			t.Errorf("the index page does not list %s:\n%s", path, index)
		}
	}
	// The self-test's transfers would show here; so does one begun by hand.
	d.Streams.Begin("task-000001", "STOR").Done(nil)
	if body := get("/debug/streams?format=text").Body.String(); !strings.Contains(body, "task-000001 (STOR, done)") {
		t.Errorf("/debug/streams does not show the registry the daemon hands out:\n%s", body)
	}
	// Profiles are the toolchain's: a heap capture on request, gzipped pprof.
	if w := get("/debug/pprof/heap"); w.Code != http.StatusOK || !strings.HasPrefix(w.Body.String(), "\x1f\x8b") {
		t.Errorf("GET /debug/pprof/heap = %d, %d bytes, not a gzip body", w.Code, w.Body.Len())
	}
	// There is no span collector server, no federation head, no profiler
	// but the toolchain's, no tenant table, no push feed and no series
	// inventory: nothing may mount their routes.
	for _, path := range []string{"/v1/spans", "/v1/traces", "/v1/trace", "/v1/has", "/fleet/", "/v1/metrics",
		"/debug/profile/continuous", "/tenants", "/debug/stream", "/debug/series"} {
		if w := get(path); w.Code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, w.Code)
		}
		if strings.Contains(index, "  "+path+" ") {
			t.Errorf("the index page lists %s:\n%s", path, index)
		}
	}
}

// TestFlagsAreTheDocumentedOnes: admin.Flags registers exactly the flags in
// the root README's table — a flag cannot come back, or arrive, undocumented.
func TestFlagsAreTheDocumentedOnes(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(readme), "| flag | does |")
	if !ok {
		t.Fatal("README.md has no observability flag table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	documented := map[string]bool{}
	for _, row := range strings.Split(table, "\n") {
		cell, _, _ := strings.Cut(strings.TrimPrefix(row, "|"), "|") // the flag column
		for _, m := range regexp.MustCompile("`-([a-z-]+)").FindAllStringSubmatch(cell, -1) {
			documented[m[1]] = true
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Flags(fs)
	registered := 0
	fs.VisitAll(func(f *flag.Flag) {
		registered++
		if !documented[f.Name] {
			t.Errorf("-%s is registered by admin.Flags but not in README's flag table", f.Name)
		}
		delete(documented, f.Name)
	})
	for name := range documented {
		t.Errorf("-%s is in README's flag table but admin.Flags does not register it", name)
	}
	if registered != 4 {
		t.Errorf("admin.Flags registers %d flags, README says four", registered)
	}
}

// TestMetricsDumpReadsBackLikeTheMetricsRoute: the -metrics exit dump is the
// /metrics body followed by the span forest as comments, so one parser —
// expfmt.ParseTextSnapshot, behind benchreport -metrics-snapshot — reads both
// to the same counters, gauges and histogram buckets.
// (go_* and process_* are read from the runtime at snapshot time; they must
// be in both, with whatever value.)
func TestMetricsDumpReadsBackLikeTheMetricsRoute(t *testing.T) {
	d := bootWith(t, "dumper", "-admin", "unused")
	reg := d.Obs.Registry()
	reg.Counter("gridftp.server.bytes_in").Add(123456)
	reg.Counter(obs.Name("usage.bytes_total", "siteA")).Add(99)
	reg.Counter(obs.Name("gridftp.client.commands", "cmd=RETR")).Add(12)
	reg.Gauge("gridftp.server.sessions_active").Set(3)
	h := reg.Histogram(obs.Name("transfer.task_seconds", "outcome=ok"), obs.DefaultDurationBuckets)
	task := d.Obs.Tracer().StartSpan("task")
	task.Child("data").End()
	task.End()
	h.ObserveExemplar(0.25, task.TraceID.String())
	h.Observe(1.5)
	h.Observe(1e6) // the +Inf bucket
	d.Close()      // loops stopped: nothing but the runtime moves between the two reads

	served := httptest.NewRecorder()
	d.Admin.Handler().ServeHTTP(served, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var dump strings.Builder
	d.writeDump(&dump)
	if !strings.Contains(dump.String(), "\n# spans\n# task ") || !strings.Contains(dump.String(), "\n#   data ") {
		t.Errorf("the dump's span forest is not commented lines after # spans:\n%s", dump.String())
	}

	stable := func(text string) (kept expfmt.Snapshot, fromRuntime int) {
		snap, err := expfmt.ParseTextSnapshot(strings.NewReader(text))
		if err != nil {
			t.Fatalf("ParseTextSnapshot: %v\n%s", err, text)
		}
		volatile := func(name string) bool {
			return strings.HasPrefix(name, "go_") || strings.HasPrefix(name, "process_")
		}
		for _, m := range snap.Metrics {
			if volatile(m.Name) {
				fromRuntime++
			} else {
				kept.Metrics = append(kept.Metrics, m)
			}
		}
		for _, h := range snap.Histograms {
			if volatile(h.Name) {
				fromRuntime++
			} else {
				kept.Histograms = append(kept.Histograms, h)
			}
		}
		return kept, fromRuntime
	}
	want, wantRuntime := stable(served.Body.String())
	got, gotRuntime := stable(dump.String())
	if len(want.Metrics) < 4 || len(want.Histograms) < 1 || wantRuntime == 0 {
		t.Fatalf("/metrics parsed to %d metrics, %d histograms, %d runtime series", len(want.Metrics), len(want.Histograms), wantRuntime)
	}
	if gotRuntime != wantRuntime {
		t.Errorf("%d runtime series in the dump, %d on /metrics", gotRuntime, wantRuntime)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the dump and /metrics parse differently:\ndump     %+v\n/metrics %+v", got, want)
	}
	for _, h := range got.Histograms {
		if h.Name == "transfer_task_seconds{outcome=ok}" {
			if h.Count != 3 || h.Counts[len(h.Counts)-1] != 3 || !math.IsInf(h.Bounds[len(h.Bounds)-1], 1) {
				t.Errorf("histogram lost its buckets: %+v", h)
			}
			return
		}
	}
	t.Errorf("transfer_task_seconds{outcome=ok} is not in the dump: %+v", got.Histograms)
}

// TestRecorderSeriesDoNotGrowWithTasks: the registry sampler is the
// recorder's one input, so the series it holds are named by the metrics in
// the code and not by the tasks that ran. A daemon's recorder holds as many
// series after eleven hosted tasks as after one.
func TestRecorderSeriesDoNotGrowWithTasks(t *testing.T) {
	d := bootWith(t, "cardinality", "-admin", "127.0.0.1:0")
	defer d.Close()
	w, err := world.NewHosted(transfer.Config{Obs: d.Obs, Streams: d.Streams},
		gcmu.Options{Obs: d.Obs, Streams: d.Streams})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Activate(); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256<<10)
	run := func(i int) {
		t.Helper()
		path := fmt.Sprintf("/cardinality-%02d.bin", i)
		if err := w.Put(path, payload); err != nil {
			t.Fatal(err)
		}
		task, err := w.Service.Submit(world.User, "siteA", path, "siteB", path)
		if err != nil {
			t.Fatal(err)
		}
		if done, err := w.Service.Wait(task.ID, time.Minute); err != nil || done.Status != transfer.TaskSucceeded {
			t.Fatalf("task %d: %+v, %v", i, done, err)
		}
	}
	// The stream poller and the sampler's alert pass each register a gauge
	// on their first tick; let both tick before counting.
	waitFor(t, "the daemon's loops to tick", func() bool {
		seen := 0
		for _, m := range d.Obs.Registry().Snapshot() {
			if m.Name == "gridftp.streams.active" || m.Name == "obs.alerts_active" {
				seen++
			}
		}
		return seen == 2
	})
	rec := d.Admin.p.Recorder
	// Two passes: a counter or histogram first seen on one pass records its
	// rate and quantiles from the next.
	sample := func() int {
		rec.SampleRegistry(d.Obs.Registry(), time.Now())
		rec.SampleRegistry(d.Obs.Registry(), time.Now())
		return len(rec.SeriesNames())
	}
	run(0)
	after1 := sample()
	for i := 1; i <= 10; i++ {
		run(i)
	}
	if after11 := sample(); after11 != after1 {
		t.Errorf("the recorder holds %d series after one task and %d after eleven", after1, after11)
	}
}

// TestCloseAfterBootLeavesNoGoroutines boots two daemons with every plane
// and every loop — one of them with the stall watchdog armed — and closes both.
func TestCloseAfterBootLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	a := bootWith(t, "a", "-admin", "unused")
	b := bootWith(t, "b", "-admin", "unused", "-stall-timeout", "1s")
	b.Close()
	a.Close()

	if after := leakcheck.AtMost(before); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before boot, %d after close:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
