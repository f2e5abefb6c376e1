package admin

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/fleet"
	"gridftp.dev/instant/internal/obs/tenant"
	"gridftp.dev/instant/internal/obs/tsdb"
)

func TestTenantsEndpoint(t *testing.T) {
	a := tenant.New(tenant.Options{Capacity: 8, TopK: 4})
	a.BytesMoved("/CN=alice", 700)
	a.BytesMoved("/CN=bob", 300)
	a.TaskSubmitted("/CN=bob")
	ts := httptest.NewServer(New(obs.Nop(), Planes{Tenants: a}).Handler())
	defer ts.Close()

	code, body, hdr := get(t, ts, "/tenants")
	if code != http.StatusOK {
		t.Fatalf("/tenants = %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var doc struct {
		Tenants []tenant.Stat  `json:"tenants"`
		Summary tenant.Summary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("body: %v\n%s", err, body)
	}
	if len(doc.Tenants) != 2 || doc.Tenants[0].DN != "/CN=alice" || doc.Tenants[0].Rank != 1 {
		t.Fatalf("tenants = %+v", doc.Tenants)
	}
	if doc.Summary.Tracked != 2 || doc.Summary.Capacity != 8 {
		t.Fatalf("summary = %+v", doc.Summary)
	}

	if code, _, _ := get(t, ts, "/tenants?k=1"); code != http.StatusOK {
		t.Fatalf("/tenants?k=1 = %d", code)
	}
	code, body, _ = get(t, ts, "/tenants?k=1")
	if err := json.Unmarshal([]byte(body), &doc); err != nil || len(doc.Tenants) != 1 {
		t.Fatalf("k=1 tenants = %+v (%v)", doc.Tenants, err)
	}
	if code, _, _ = get(t, ts, "/tenants?k=zero"); code != http.StatusBadRequest {
		t.Fatalf("/tenants?k=zero = %d, want 400", code)
	}
}

// TestTenantPushRouteForwardsToFleet: a pushed tenant table reaches the
// mounted fleet handler through the head's admin plane. It rides the one
// envelope on /v1/metrics; the route of its own it once had is gone, not
// kept beside it.
func TestTenantPushRouteForwardsToFleet(t *testing.T) {
	fl := fleet.New(fleet.Options{Obs: obs.Nop()})
	ts := httptest.NewServer(New(obs.Nop(), Planes{Fleet: fl.Handler()}).Handler())
	defer ts.Close()

	body := `{"instance":"ep1","metrics":"","tenants":[{"dn":"/CN=pusher","hash":"00000000","weight":10,"bytes":10}]}`
	post := func(path string) int {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("/v1/metrics"); code != http.StatusNoContent {
		t.Fatalf("POST /v1/metrics via admin mux = %d, want 204", code)
	}
	for _, gone := range []string{"/v1/tenants", "/v1/profile"} {
		if code := post(gone); code != http.StatusNotFound {
			t.Fatalf("POST %s = %d, want 404: the envelope is the one push route", gone, code)
		}
	}
	code, out, _ := get(t, ts, "/fleet/tenants")
	if code != http.StatusOK || !strings.Contains(out, "/CN=pusher") {
		t.Fatalf("GET /fleet/tenants = %d %q, want the pushed DN", code, out)
	}
}

func TestSeriesEndpoint(t *testing.T) {
	rec := tsdb.New(tsdb.Options{})
	ts := httptest.NewServer(New(obs.Nop(), Planes{Recorder: rec}).Handler())
	defer ts.Close()
	t0 := time.Unix(1000, 0)
	rec.Observe("transfer.task.t1.throughput", t0, 1)
	rec.Observe("gridftp.stream.s1.rtt", t0, 2)
	rec.RetireAt("transfer.task.t1.", t0)

	code, body, _ := get(t, ts, "/debug/series")
	if code != http.StatusOK {
		t.Fatalf("/debug/series = %d: %s", code, body)
	}
	var doc struct {
		Series       []tsdb.SeriesInfo `json:"series"`
		Live         int               `json:"live"`
		Tombstoned   int               `json:"tombstoned"`
		RetiredTotal int64             `json:"retired_total"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("body: %v\n%s", err, body)
	}
	if doc.Live != 2 || doc.Tombstoned != 1 || doc.RetiredTotal != 1 {
		t.Fatalf("lifecycle counts = %+v", doc)
	}
	states := map[string]string{}
	for _, si := range doc.Series {
		states[si.Name] = si.State
	}
	if states["transfer.task.t1.throughput"] != "retired" || states["gridftp.stream.s1.rtt"] != "live" {
		t.Fatalf("states = %+v", states)
	}

	// Prefix filter narrows the inventory, not the counts.
	_, body, _ = get(t, ts, "/debug/series?series=gridftp.")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("filtered body: %v", err)
	}
	if len(doc.Series) != 1 || doc.Series[0].Name != "gridftp.stream.s1.rtt" {
		t.Fatalf("filtered series = %+v", doc.Series)
	}
}
