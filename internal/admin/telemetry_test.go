package admin

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/tsdb"
)

var tt0 = time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)

// telemetryServer is a server over a fresh recorder and an engine with the
// given rules (nil = tsdb.DefaultRules()) — the pair the bootstrap builds.
func telemetryServer(o *obs.Obs, rules []tsdb.Rule) *Server {
	if rules == nil {
		rules = tsdb.DefaultRules()
	}
	rec := tsdb.New(tsdb.Options{})
	return New(o, Planes{Recorder: rec, Engine: tsdb.NewEngine(rec, o, rules)})
}

// TestTelemetryEndpointsDisabled: a plane that was not handed to New has no
// routes — 404, and nothing on the index page — rather than routes that
// answer "not enabled".
func TestTelemetryEndpointsDisabled(t *testing.T) {
	ts := httptest.NewServer(New(obs.Nop(), Planes{}).Handler())
	defer ts.Close()
	_, index, _ := get(t, ts, "/")
	for _, path := range []string{"/debug/timeseries", "/alerts", "/debug/streams"} {
		if code, _, _ := get(t, ts, path); code != http.StatusNotFound {
			t.Errorf("%s without its plane: status %d, want 404", path, code)
		}
		if strings.Contains(index, "  "+path+" ") {
			t.Errorf("the index lists %s, which is not mounted:\n%s", path, index)
		}
	}
	if !strings.Contains(index, "/metrics") || !strings.Contains(index, "/debug/events") {
		t.Errorf("the index lost the bundle's own routes:\n%s", index)
	}
}

func TestTimeseriesEndpoint(t *testing.T) {
	o := obs.Nop()
	s := telemetryServer(o, nil)
	rec := s.p.Recorder
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The recorder's one input: ten passes of the sampler over a registry,
	// a second apart, the last one a second ago.
	reg := obs.NewRegistry()
	now := time.Now()
	for i := 0; i < 10; i++ {
		reg.Gauge("transfer.active_transfers").Set(int64(i))
		reg.Gauge("other.gauge").Set(1)
		rec.SampleRegistry(reg, now.Add(time.Duration(i-10)*time.Second))
	}

	code, body, hdr := get(t, ts, "/debug/timeseries?series=transfer.")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var out struct {
		Series []struct {
			Name   string `json:"name"`
			Points []struct {
				T time.Time `json:"t"`
				V float64   `json:"v"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(out.Series) != 1 || out.Series[0].Name != "transfer.active_transfers" {
		t.Fatalf("series = %+v, want only the transfer gauge", out.Series)
	}
	if len(out.Series[0].Points) != 10 {
		t.Errorf("points = %d, want 10", len(out.Series[0].Points))
	}

	// Relative since + step: only the last ~5s, rebucketed at 2s.
	code, body, _ = get(t, ts, "/debug/timeseries?series=transfer.&since=5s&step=2s")
	if code != http.StatusOK {
		t.Fatalf("since/step status %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(out.Series) != 1 || len(out.Series[0].Points) >= 10 || len(out.Series[0].Points) == 0 {
		t.Errorf("since/step gave %+v, want a shorter rebucketed tail", out.Series)
	}

	// since as a point in time: the samples at -3s, -2s and -1s.
	since := now.Add(-3500 * time.Millisecond).UTC().Format(time.RFC3339Nano)
	_, body, _ = get(t, ts, "/debug/timeseries?series=transfer.&since="+since)
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(out.Series) != 1 || len(out.Series[0].Points) != 3 {
		t.Errorf("since=<RFC 3339> gave %+v, want the last 3 points", out.Series)
	}

	// Malformed parameters are 400s, not 500s.
	for _, bad := range []string{"since=yesterday", "step=-3s", "step=soon"} {
		if code, _, _ := get(t, ts, "/debug/timeseries?"+bad); code != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", bad, code)
		}
	}
}

func TestAlertsEndpoint(t *testing.T) {
	o := obs.Nop()
	s := telemetryServer(o, []tsdb.Rule{
		{Name: "calm", Series: "x", Kind: tsdb.KindThreshold, Op: tsdb.OpGreater, Value: 100},
		{Name: "hot", Series: "x", Kind: tsdb.KindThreshold, Op: tsdb.OpGreater, Value: 1},
	})
	rec, eng := s.p.Recorder, s.p.Engine
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reg := obs.NewRegistry()
	reg.Gauge("x").Set(50)
	rec.SampleRegistry(reg, tt0)
	eng.Eval(tt0)

	code, body, _ := get(t, ts, "/alerts")
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var out struct {
		Active int `json:"active"`
		Alerts []struct {
			Rule  struct{ Name string }
			State string `json:"state"`
		} `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if out.Active != 1 || len(out.Alerts) != 2 {
		t.Fatalf("alerts = %+v, want 2 rules with 1 active", out)
	}
	// Firing sorts first.
	if out.Alerts[0].Rule.Name != "hot" || out.Alerts[0].State != "firing" {
		t.Errorf("first alert = %+v, want the firing rule", out.Alerts[0])
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEnableTelemetrySamplesAndAlerts: Start runs the registry sampler and
// evaluates the rules on what it sampled.
func TestEnableTelemetrySamplesAndAlerts(t *testing.T) {
	o := obs.Nop()
	s := telemetryServer(o, []tsdb.Rule{
		{Name: "g-high", Series: "g", Kind: tsdb.KindThreshold, Op: tsdb.OpGreater, Value: 5},
	})
	stop := s.Start()
	defer stop()
	rec := s.p.Recorder
	// The sampler picks up registry state in the background (1s cadence).
	o.Registry().Gauge("g").Set(9)
	waitFor(t, "background sample", func() bool {
		p, ok := rec.Latest("g")
		return ok && p.V == 9
	})
	waitFor(t, "the rule on the sampled gauge firing", func() bool { return len(s.p.Engine.Active()) == 1 })
	stop()
	stop() // idempotent
}
