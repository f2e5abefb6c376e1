package fleet_test

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/fleet"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// TestFleetTimeseriesAndAlertsRoutes pins the JSON of the two head routes
// that serve the fleet recorder and engine — what benchreport's fleet
// dashboard decodes — on a fake clock: the series selector, ?since= as a
// duration against the head's clock or as RFC 3339, ?step= re-bucketing, and
// the 400s.
func TestFleetTimeseriesAndAlertsRoutes(t *testing.T) {
	clk := &fleetClock{now: time.Unix(1_700_000_000, 0)}
	svc := fleet.New(fleet.Options{Obs: obs.Nop(), Now: clk.Now, StaleAfter: 3 * time.Second})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	env := fleet.Envelope{Instance: "ep-a", Metrics: expfmt.Snapshot{Metrics: []obs.Metric{
		{Name: "gridftp.server.bytes_in", Kind: "counter", Value: 1 << 20},
	}}}
	for i := 0; i < 10; i++ {
		env.Metrics.Metrics[0].Value += 1 << 20
		if err := svc.Ingest("", env, clk.Now()); err != nil {
			t.Fatal(err)
		}
		svc.Tick(clk.Advance(time.Second))
	}

	type doc struct {
		Series []struct {
			Name   string
			Points []struct {
				T time.Time
				V float64
			}
		}
	}
	var all doc
	getJSON(t, ts.Client(), ts.URL+"/fleet/timeseries?series=fleet.instances.", &all)
	names := map[string]int{}
	for _, s := range all.Series {
		names[s.Name] = len(s.Points)
	}
	for _, want := range []string{"fleet.instances.total", "fleet.instances.up", "fleet.instances.stale", "fleet.instances.restarts"} {
		if names[want] != 10 {
			t.Errorf("series %s has %d points, want 10 (got %v)", want, names[want], names)
		}
	}
	if len(names) != 4 {
		t.Errorf("?series=fleet.instances. selected %v", names)
	}

	var tail doc
	getJSON(t, ts.Client(), ts.URL+"/fleet/timeseries?series=fleet.instances.up&since=4500ms", &tail)
	if len(tail.Series) != 1 || len(tail.Series[0].Points) != 5 {
		t.Errorf("since=4500ms against the head's clock: %+v, want the last 5 points", tail.Series)
	}
	getJSON(t, ts.Client(), ts.URL+"/fleet/timeseries?series=fleet.instances.up&since="+
		clk.Now().Add(-2500*time.Millisecond).UTC().Format(time.RFC3339Nano), &tail)
	if len(tail.Series) != 1 || len(tail.Series[0].Points) != 3 {
		t.Errorf("since=<RFC 3339>: %+v, want the last 3 points", tail.Series)
	}
	var stepped doc
	getJSON(t, ts.Client(), ts.URL+"/fleet/timeseries?series=fleet.gridftp_server_bytes_in.rate&step=5s", &stepped)
	if len(stepped.Series) != 1 || len(stepped.Series[0].Points) >= 9 || stepped.Series[0].Points[0].V != 1<<20 {
		t.Errorf("step=5s: %+v, want the rate series re-bucketed at 1 MiB/s", stepped.Series)
	}
	for _, bad := range []string{"since=yesterday", "step=-3s", "step=soon"} {
		resp, err := ts.Client().Get(ts.URL + "/fleet/timeseries?" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s = %d, want 400", bad, resp.StatusCode)
		}
	}

	// The instance goes quiet; the stale rule fires after its For window.
	for i := 0; i < 12 && alertState(svc.Engine(), "fleet-instance-stale") != tsdb.StateFiring; i++ {
		svc.Tick(clk.Advance(time.Second))
	}
	var alerts struct {
		Alerts []struct {
			Rule  struct{ Name, Series string }
			State string
			Value float64
		}
		Active int
	}
	// "active" is the count firing, as on a daemon's /alerts. (It was the
	// list of them here, which benchreport's one alert document — an int —
	// could not decode: the fleet dashboard lost its alert table exactly
	// when something fired.)
	getJSON(t, ts.Client(), ts.URL+"/fleet/alerts", &alerts)
	if alerts.Active != 1 {
		t.Errorf("active = %d, want 1", alerts.Active)
	}
	if alerts.Alerts[0].State != "firing" {
		t.Errorf("the firing alert is not listed first: %+v", alerts.Alerts)
	}
	if len(alerts.Alerts) != len(tsdb.DefaultFleetRules()) {
		t.Fatalf("/fleet/alerts lists %d rules, want %d", len(alerts.Alerts), len(tsdb.DefaultFleetRules()))
	}
	firing := 0
	for _, a := range alerts.Alerts {
		if a.State == "firing" {
			firing++
			if a.Rule.Name != "fleet-instance-stale" || a.Value != 1 {
				t.Errorf("firing alert = %+v, want fleet-instance-stale at 1", a)
			}
		}
	}
	if firing != 1 {
		t.Errorf("%d alerts firing, want 1: %+v", firing, alerts.Alerts)
	}
}
