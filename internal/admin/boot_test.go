package admin

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/netsim"
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

// sampleLine is the sample grammar of the Prometheus text format, version
// 0.0.4, as /metrics declares it: `name{k="v",…} value`, with no timestamp
// and nothing after the value.
var sampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*` +
	`(\{[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\.)*"(,[a-zA-Z_][a-zA-Z0-9_]*="([^"\\\n]|\\.)*")*\})?` +
	` ([-+]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?|[-+]Inf|NaN)$`)

// TestMetricsDumpReadsBackLikeTheMetricsRoute: after one real GridFTP GET
// through a site on the daemon's Obs, every sample line of /metrics is valid
// text format, and the -metrics exit dump is the /metrics body line for line
// followed by the span forest as comments. (go_* and process_* are read from
// the runtime at each write; only their values may differ.)
func TestMetricsDumpReadsBackLikeTheMetricsRoute(t *testing.T) {
	d := bootWith(t, "dumper", "-admin", "unused")
	nw := netsim.NewNetwork()
	site, err := world.NewSite(nw, "siteA", gridftp.ServerConfig{Obs: d.Obs, Streams: d.Streams})
	if err != nil {
		t.Fatal(err)
	}
	if err := site.Put("/f.bin", make([]byte, 256<<10)); err != nil {
		t.Fatal(err)
	}
	c, err := site.Connect(nw.Host("laptop"), gridftp.DialOptions{Obs: d.Obs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/f.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	c.Close()
	site.Close()
	d.Close() // loops stopped: nothing but the runtime moves between the two writes

	served := httptest.NewRecorder()
	d.Admin.Handler().ServeHTTP(served, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var dump strings.Builder
	d.writeDump(&dump)
	metrics, spans, ok := strings.Cut(dump.String(), "# spans\n")
	if !ok || !strings.Contains(spans, "# gridftp.retr ") {
		t.Errorf("the dump's span forest is not commented lines after # spans:\n%s", dump.String())
	}
	for _, line := range strings.Split(spans, "\n") {
		if line != "" && !strings.HasPrefix(line, "# ") {
			t.Errorf("span forest line %q is not a comment", line)
		}
	}

	want := strings.Split(served.Body.String(), "\n")
	got := strings.Split(metrics, "\n")
	for name, lines := range map[string][]string{"/metrics": want, "the dump": got} {
		for _, line := range lines {
			if line != "" && !strings.HasPrefix(line, "# TYPE ") && !sampleLine.MatchString(line) {
				t.Errorf("%s: %q is not a text-format sample", name, line)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("the dump has %d metric lines, /metrics %d", len(got), len(want))
	}
	fromRuntime := 0
	for i := range want {
		if want[i] == got[i] {
			continue
		}
		w, _, _ := strings.Cut(want[i], " ")
		g, _, _ := strings.Cut(got[i], " ")
		if w == g && (strings.HasPrefix(w, "go_") || strings.HasPrefix(w, "process_")) {
			fromRuntime++
			continue
		}
		t.Errorf("line %d: the dump has %q, /metrics %q", i+1, got[i], want[i])
	}
	t.Logf("%d lines, %d runtime samples moved between the two writes", len(want), fromRuntime)
	for _, line := range []string{
		`gridftp_server_bytes{instance="RETR"} 262144`,
		`gridftp_server_transfer_seconds_count{outcome="ok"} 1`,
		`gridftp_server_command_seconds_bucket{le="+Inf"} `,
	} {
		if !strings.Contains(served.Body.String(), "\n"+line) {
			t.Errorf("/metrics has no line starting %q:\n%s", line, served.Body.String())
		}
	}
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
