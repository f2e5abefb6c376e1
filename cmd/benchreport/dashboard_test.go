package main

// Golden output for the live dashboard, rendered against a daemon the
// bootstrap built (admin.Flags + Start, as the five mains do) and then
// closed: with every background loop stopped, the planes hold exactly what
// the test fed them, so the page is the same every run. What the page reads
// — /debug/timeseries, /alerts, /debug/streams — is held byte for byte.
// Regenerate with
//
//	go test ./cmd/benchreport -run Golden -update

import (
	"flag"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/admin"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// quietDaemon boots a daemon with every plane, closes it, and
// serves its admin plane from an httptest server. A daemon one of whose
// loops got a tick in before Close is thrown away: its recorder already
// holds samples of this process.
func quietDaemon(t *testing.T) (*admin.Daemon, *httptest.Server) {
	t.Helper()
	for try := 0; try < 5; try++ {
		fs := flag.NewFlagSet("golden", flag.ContinueOnError)
		boot := admin.Flags(fs)
		if err := fs.Parse([]string{"-admin", "127.0.0.1:0"}); err != nil {
			t.Fatal(err)
		}
		d, err := boot.Start()
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
		ts := httptest.NewServer(d.Admin.Handler())
		var inv struct{ Live int }
		if err := fetchJSON(ts.URL+"/debug/series", &inv); err != nil {
			t.Fatal(err)
		}
		if inv.Live == 0 {
			t.Cleanup(ts.Close)
			return d, ts
		}
		ts.Close()
	}
	t.Fatal("no daemon closed before its first tick in five tries")
	return nil, nil
}

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
	d, ts := quietDaemon(t)

	// The recorder: two task timelines (one with a worker series the top-task
	// table must skip) and a plain counter rate.
	base := time.Now().Truncate(time.Second).Add(-40 * time.Second)
	series := d.Obs.TimeSeries()
	for i := 0; i < 12; i++ {
		at := base.Add(time.Duration(i) * time.Second)
		series.Observe("transfer.task.task-000001.throughput", at, float64(i)*4e6)
		series.Observe("transfer.task.task-000001.worker.0.throughput", at, float64(i)*4e6)
		series.Observe("transfer.task.task-000002.throughput", at, 1.5e6)
		series.Observe("gridftp.server.bytes_in.rate", at, float64(i%3)*0.25)
	}
	// The stream registry: one finished two-stream transfer.
	tr := d.Streams.Begin("task-000001", "STOR")
	for i, n := range []int{8192, 4096} {
		near, far := net.Pipe()
		wrapped := tr.Wrap(i, near, near)
		go func() { far.Write(make([]byte, n)); far.Close() }()
		if _, err := io.Copy(io.Discard, wrapped); err != nil {
			t.Fatal(err)
		}
		near.Close()
	}
	tr.Done(nil)

	src := ts.URL + "/debug/timeseries?series=transfer.task.,gridftp.server."
	checkGolden(t, "dashboard.golden", captureStdout(t, func() error { return renderDashboard(src) }))
}

// TestDashboardOfASavedDocument: a saved /debug/timeseries document renders
// the recorder sections and none of the live-only ones.
func TestDashboardOfASavedDocument(t *testing.T) {
	doc := `{"now":"2026-08-06T12:00:00Z","series":[{"name":"transfer.task.t1.throughput","points":[{"t":"2026-08-06T11:59:59Z","v":1000},{"t":"2026-08-06T12:00:00Z","v":3000}]}]}`
	path := t.TempDir() + "/ts.json"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() error { return renderDashboard(path) })
	for _, want := range []string{"top tasks by current throughput", "t1", "3.0 KB/s", "▁█"} {
		if !strings.Contains(got, want) {
			t.Errorf("saved-document dashboard lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "alerts (") || strings.Contains(got, "stream health") {
		t.Errorf("saved-document dashboard shows live-only sections:\n%s", got)
	}
}
