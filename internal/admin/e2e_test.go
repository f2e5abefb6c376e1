package admin_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/authz"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/world"
)

// TestAdminPlaneEndToEnd is the acceptance scenario: a GCMU endpoint
// serving real transfers while its obs bundle is scraped through the
// admin plane — /metrics must expose the control-channel command
// histogram in Prometheus form, and /debug/events the session, auth,
// and transfer lifecycle — a login the gridmap refuses included, with the
// stage it failed at and the DN it refused.
func TestAdminPlaneEndToEnd(t *testing.T) {
	o := obs.Nop()
	nw := netsim.NewNetwork()
	ep, err := world.NewEndpoint(gcmu.Options{Name: "siteA", Host: nw.Host("siteA"), Obs: o,
		LegacyGridmap: authz.NewGridmap()},
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
	// The site CA vouches for mallory, but mallory has no local account
	// and no gridmap line.
	const mallory = gsi.DN("/O=GCMU/OU=siteA/CN=mallory")
	cred, err := ep.SigningCA.Issue(gsi.IssueOptions{Subject: mallory, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Dial returns once the server is verified; the login's 530 is the
	// first read's.
	if c, err := gridftp.Dial(nw.Host("laptop"), ep.GridFTPAddr, cred, ep.Trust); err == nil {
		err = c.Noop()
		c.Close()
		if err == nil {
			t.Fatal("a DN with no mapping logged in")
		}
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
	// The endpoint's transfers are counted once, under gridftp_server_*.
	if strings.Contains(metrics, "\nusage_") {
		t.Errorf("/metrics re-counts transfers as usage_* samples:\n%s", metrics)
	}

	events := func(path string) []obs.Event {
		t.Helper()
		var doc struct {
			Events []obs.Event `json:"events"`
		}
		if err := json.Unmarshal([]byte(fetch(path)), &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Events
	}
	types := make(map[string]int)
	for _, ev := range events("/debug/events") {
		types[ev.Type]++
	}
	for _, want := range []string{
		"endpoint.install",
		"session.open",
		"auth.success",
		"auth.failure",
		"transfer.start",
		"transfer.complete",
	} {
		if types[want] == 0 {
			t.Errorf("/debug/events missing %q (have %v)", want, types)
		}
	}

	var refused []obs.Event
	for _, ev := range events("/debug/events?type=auth.") {
		if !strings.HasPrefix(ev.Type, "auth.") {
			t.Errorf("?type=auth. served a %q record", ev.Type)
		}
		if ev.Type == "auth.failure" {
			refused = append(refused, ev)
		}
	}
	if len(refused) != 1 {
		t.Fatalf("%d auth.failure records, want 1: %+v", len(refused), refused)
	}
	if f := refused[0].Fields; f["stage"] != "authz" || f["dn"] != string(mallory) ||
		f["component"] != "gridftp-server" || f["level"] != "warn" || !strings.Contains(f["err"], "gridmap") {
		t.Errorf("the refused login reads %v, want stage=authz, dn=%s, the gridmap's error, at warn", f, mallory)
	}
}
