package admin

import (
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// bootWith boots a daemon from a command line, without the socket.
func bootWith(t *testing.T, name string, args ...string) *Daemon {
	t.Helper()
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	b := Flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	d, err := b.boot(name)
	if err != nil {
		t.Fatalf("boot %v: %v", args, err)
	}
	return d
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
	if len(routes) < 15 {
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
	d := bootWith(t, "every-plane", "-admin", "unused", "-fleet", "-stall-timeout", "30s")
	defer d.Close()
	d.Ready()
	h := d.Admin.Handler()

	get := func(path string) *httptest.ResponseRecorder {
		// The SSE feed never ends by itself; everything else is done long
		// before the deadline.
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx))
		return w
	}
	index := get("/").Body.String()
	for _, route := range documentedRoutes(t) {
		path := strings.TrimSuffix(route, "*") // "/fleet/*" names a subtree
		if w := get(path); w.Code == http.StatusServiceUnavailable || w.Code == http.StatusNotFound && path != "/fleet/" {
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
	for _, path := range []string{"/fleet/instances", "/fleet/tenants", "/fleet/profile", "/fleet/alerts", "/fleet/timeseries"} {
		if w := get(path); w.Code != http.StatusOK {
			t.Errorf("GET %s = %d %q", path, w.Code, strings.TrimSpace(w.Body.String()))
		}
	}
}

func TestBootRefusesAHeadWithoutAnAdminPlane(t *testing.T) {
	for _, args := range [][]string{{"-fleet"}, {"-fleet-bundle-dir", "/tmp/x"}} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		b := Flags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if d, err := b.boot("t"); err == nil {
			d.Close()
			t.Errorf("boot %v succeeded", args)
		}
	}
}

// goroutinesAtMost polls until the goroutine count is back at or under limit
// (connection teardown is asynchronous) and returns the last count.
func goroutinesAtMost(limit int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > limit && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// TestCloseAfterBootLeavesNoGoroutines boots a head and an instance that
// pushes to it — every plane and every loop between them — and closes both.
func TestCloseAfterBootLeavesNoGoroutines(t *testing.T) {
	http.DefaultClient.CloseIdleConnections()
	before := runtime.NumGoroutine()

	head := bootWith(t, "head", "-admin", "unused", "-fleet")
	front := httptest.NewServer(head.Admin.Handler())
	inst := bootWith(t, "ep-a", "-admin", "unused", "-fleet-push", front.URL+"/v1/metrics?via=test", "-stall-timeout", "1s")
	inst.Tenants.BytesMoved("/CN=alice", 1<<20)
	inst.Close() // the pusher's last envelope goes out here

	resp, err := http.Get(front.URL + "/fleet/tenants")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !strings.Contains(string(body), `"dn": "/CN=alice"`) {
		t.Errorf("the head never saw the instance's tenant table (%v):\n%s", err, body)
	}

	head.Close()
	front.Close()
	http.DefaultClient.CloseIdleConnections()
	if after := goroutinesAtMost(before); after > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines before boot, %d after close:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
