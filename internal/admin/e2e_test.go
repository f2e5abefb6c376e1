package admin_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/world"
)

// TestAdminPlaneEndToEnd is the acceptance scenario: a GCMU endpoint
// serving real transfers while its obs bundle is scraped through the
// admin plane — /metrics must expose the control-channel command
// histogram in Prometheus form, and /debug/events the session, auth,
// and transfer lifecycle.
func TestAdminPlaneEndToEnd(t *testing.T) {
	o := obs.Nop()
	nw := netsim.NewNetwork()
	ep, err := world.NewEndpoint(gcmu.Options{Name: "siteA", Host: nw.Host("siteA"), Obs: o},
		map[string]string{"alice": "secret"})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	ts := httptest.NewServer(admin.New(o, admin.Planes{}).Handler())
	defer ts.Close()

	client, err := ep.Connect(nw.Host("laptop"), "alice", pam.PasswordConv("secret"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	payload := make([]byte, 256<<10)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := client.Put("/e2e.bin", dsi.NewBufferFile(payload)); err != nil {
		t.Fatal(err)
	}
	dst := dsi.NewBufferFile(nil)
	if _, err := client.Get("/e2e.bin", dst); err != nil {
		t.Fatal(err)
	}

	fetch := func(path string) string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := fetch("/metrics")
	for _, want := range []string{
		"# TYPE gridftp_server_command_seconds histogram",
		`gridftp_server_command_seconds_bucket{le="+Inf"}`,
		"gridftp_server_command_seconds_count",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var doc struct {
		Events []eventlog.Event `json:"events"`
	}
	if err := json.Unmarshal([]byte(fetch("/debug/events")), &doc); err != nil {
		t.Fatal(err)
	}
	types := make(map[string]int)
	for _, ev := range doc.Events {
		types[ev.Type]++
	}
	for _, want := range []string{
		eventlog.EndpointInstall,
		eventlog.SessionOpen,
		eventlog.AuthSuccess,
		eventlog.TransferStart,
		eventlog.TransferComplete,
	} {
		if types[want] == 0 {
			t.Errorf("/debug/events missing %q (have %v)", want, types)
		}
	}
}
