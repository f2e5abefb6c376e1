package main

// Golden output for the live dashboard, rendered against an admin server
// over the planes the bootstrap builds — a recorder, an engine over
// tsdb.DefaultRules and a stream registry — with no background loop running,
// so the planes hold exactly what the test fed them and the page is the
// same every run. What the page reads — /debug/timeseries, /alerts,
// /debug/streams — is held byte for byte. Regenerate with
//
//	go test ./cmd/benchreport -run Golden -update

import (
	"flag"
	"io"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/obs/tsdb"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// captureStdout runs fn with os.Stdout redirected and returns what it wrote.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	ferr := fn()
	os.Stdout = saved
	w.Close()
	text := <-out
	if ferr != nil {
		t.Fatalf("render: %v\n%s", ferr, text)
	}
	return text
}

var (
	clockRE = regexp.MustCompile(`\b\d\d:\d\d:\d\d\b`)
	hostRE  = regexp.MustCompile(`http://127\.0\.0\.1:\d+`)
)

// checkGolden compares got, with the wall clock and the port taken out, to
// testdata/<name>.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	got = hostRE.ReplaceAllString(clockRE.ReplaceAllString(got, "HH:MM:SS"), "http://ADMIN")
	path := "testdata/" + name
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs.\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

func TestDashboardGolden(t *testing.T) {
	o := obs.Nop()
	rec := tsdb.New(tsdb.Options{})
	streams := streamstats.New(streamstats.Options{Obs: o})
	ts := httptest.NewServer(admin.New(o, admin.Planes{
		Recorder: rec, Engine: tsdb.NewEngine(rec, o, tsdb.DefaultRules()), Streams: streams,
	}).Handler())
	t.Cleanup(ts.Close)

	// The recorder: twelve sampler passes a second apart over a registry
	// with a gauge and a counter (whose rate starts on the second pass).
	reg := obs.NewRegistry()
	base := time.Now().Truncate(time.Second).Add(-40 * time.Second)
	for i := 0; i < 12; i++ {
		reg.Gauge("transfer.active_transfers").Set(int64(i))
		reg.Counter("gridftp.server.bytes_in").Add(int64(i%3) * 250)
		rec.SampleRegistry(reg, base.Add(time.Duration(i)*time.Second))
	}
	// The stream registry: one finished two-stream transfer.
	tr := streams.Begin("task-000001", "STOR")
	for i, n := range []int64{8192, 4096} {
		tr.Stream(i, nil)
		tr.Tell(i, n, 0)
	}
	tr.Done(nil)

	src := ts.URL + "/debug/timeseries?series=transfer.,gridftp.server."
	checkGolden(t, "dashboard.golden", captureStdout(t, func() error { return renderDashboard(src) }))
}

// TestDashboardOfASavedDocument: a saved /debug/timeseries document renders
// the recorder sections and none of the live-only ones.
func TestDashboardOfASavedDocument(t *testing.T) {
	doc := `{"now":"2026-08-06T12:00:00Z","series":[{"name":"transfer.bytes_total.rate","points":[{"t":"2026-08-06T11:59:59Z","v":1000},{"t":"2026-08-06T12:00:00Z","v":3000}]}]}`
	path := t.TempDir() + "/ts.json"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() error { return renderDashboard(path) })
	for _, want := range []string{"transfer.bytes_total.rate", "3000.000", "▁█"} {
		if !strings.Contains(got, want) {
			t.Errorf("saved-document dashboard lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "alerts (") || strings.Contains(got, "stream health") {
		t.Errorf("saved-document dashboard shows live-only sections:\n%s", got)
	}
}
