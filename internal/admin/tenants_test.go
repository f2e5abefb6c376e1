package admin

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
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
