package admin

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
)

func get(t *testing.T, ts *httptest.Server, path string) (int, string, http.Header) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsEndpoint(t *testing.T) {
	o := obs.Nop()
	o.Registry().Counter("gridftp.server.sessions").Add(2)
	o.Registry().Histogram("gridftp.server.command_seconds", obs.DefaultDurationBuckets).Observe(0.003)
	ts := httptest.NewServer(New(o, Planes{}).Handler())
	defer ts.Close()

	code, body, hdr := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"gridftp_server_sessions 2",
		`gridftp_server_command_seconds_bucket{le="+Inf"} 1`,
		"gridftp_server_command_seconds_count 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	// There is one format; asking for another changes nothing.
	_, again, hdr := get(t, ts, "/metrics?format=json")
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") || !strings.Contains(again, "gridftp_server_sessions 2") {
		t.Errorf("/metrics?format=json: Content-Type %q, body:\n%s", ct, again)
	}
}

func TestProbes(t *testing.T) {
	s := New(obs.Nop(), Planes{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Empty probe sets are healthy.
	if code, body, _ := get(t, ts, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("/healthz empty = %d %q", code, body)
	}

	s.AddReadiness("endpoint", func() error { return errors.New("not yet installed") })
	code, body, _ := get(t, ts, "/readyz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/readyz with failing probe = %d, want 503", code)
	}
	if !strings.Contains(body, "endpoint: not yet installed") {
		t.Errorf("/readyz body = %q", body)
	}

	s.AddReadiness("endpoint", func() error { return nil })
	if code, body, _ := get(t, ts, "/readyz"); code != http.StatusOK || !strings.Contains(body, "endpoint: ok") {
		t.Errorf("/readyz after flip = %d %q", code, body)
	}
	// Health is a separate probe set.
	if code, _, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz = %d, want 200", code)
	}
}

func TestSpansEndpoint(t *testing.T) {
	o := obs.Nop()
	parent := o.Tracer().StartSpan("task")
	child := parent.Child("attempt")
	child.End()
	parent.End()
	ts := httptest.NewServer(New(o, Planes{}).Handler())
	defer ts.Close()

	_, body, _ := get(t, ts, "/debug/spans")
	var doc struct {
		Spans []struct {
			Name     string `json:"name"`
			Children []struct {
				Name string `json:"name"`
			} `json:"children"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "task" {
		t.Fatalf("spans = %+v, want one root 'task'", doc.Spans)
	}
	if len(doc.Spans[0].Children) != 1 || doc.Spans[0].Children[0].Name != "attempt" {
		t.Errorf("children = %+v, want one 'attempt'", doc.Spans[0].Children)
	}
}

// TestSpansTraceFilter checks the ?trace= query narrows the snapshot to
// one distributed trace and that spans carry their wire ids — the
// contract the cross-process collector scrapes against.
func TestSpansTraceFilter(t *testing.T) {
	o := obs.Nop()
	t1 := o.Tracer().StartSpan("task-one")
	t1.Child("data").End()
	t1.End()
	t2 := o.Tracer().StartSpan("task-two")
	t2.End()
	ts := httptest.NewServer(New(o, Planes{}).Handler())
	defer ts.Close()

	type node struct {
		Name         string `json:"name"`
		TraceID      string `json:"trace_id"`
		SpanID       string `json:"span_id"`
		ParentSpanID string `json:"parent_span_id"`
		Children     []node `json:"children"`
	}
	decode := func(body string) []node {
		var doc struct {
			Spans []node `json:"spans"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, body)
		}
		return doc.Spans
	}

	_, body, _ := get(t, ts, "/debug/spans")
	if spans := decode(body); len(spans) != 2 {
		t.Fatalf("unfiltered roots = %d, want 2", len(spans))
	}

	_, body, _ = get(t, ts, "/debug/spans?trace="+t1.TraceID.String())
	spans := decode(body)
	if len(spans) != 1 || spans[0].Name != "task-one" {
		t.Fatalf("trace filter returned %+v, want only task-one", spans)
	}
	root := spans[0]
	if root.TraceID != t1.TraceID.String() || root.SpanID != t1.SpanID.String() {
		t.Errorf("root ids %s/%s, want %s/%s", root.TraceID, root.SpanID, t1.TraceID, t1.SpanID)
	}
	if len(root.Children) != 1 || root.Children[0].ParentSpanID != t1.SpanID.String() {
		t.Errorf("child parent link = %+v", root.Children)
	}

	_, body, _ = get(t, ts, "/debug/spans?trace=deadbeef")
	if spans := decode(body); len(spans) != 0 {
		t.Errorf("unknown trace id returned %+v, want empty", spans)
	}
}

func TestEventsEndpoint(t *testing.T) {
	o := obs.Nop()
	o.EventLog().Append(eventlog.SessionOpen, "session", "s1")
	o.EventLog().Append(eventlog.TransferStart, "session", "s1", "path", "/a")
	o.EventLog().Append(eventlog.TransferComplete, "session", "s1", "path", "/a")
	ts := httptest.NewServer(New(o, Planes{}).Handler())
	defer ts.Close()

	decode := func(body string) []eventlog.Event {
		var doc struct {
			Events []eventlog.Event `json:"events"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("bad JSON: %v\n%s", err, body)
		}
		return doc.Events
	}

	_, body, _ := get(t, ts, "/debug/events")
	if evs := decode(body); len(evs) != 3 || evs[0].Type != eventlog.SessionOpen {
		t.Errorf("all events = %+v", evs)
	}
	_, body, _ = get(t, ts, "/debug/events?type=transfer.")
	if evs := decode(body); len(evs) != 2 {
		t.Errorf("type filter: %+v", evs)
	}
	_, body, _ = get(t, ts, "/debug/events?n=1")
	if evs := decode(body); len(evs) != 1 || evs[0].Type != eventlog.TransferComplete {
		t.Errorf("n=1: %+v", evs)
	}
	if code, _, _ := get(t, ts, "/debug/events?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("n=bogus: status %d, want 400", code)
	}
}

func TestListenAndServe(t *testing.T) {
	s := New(obs.Nop(), Planes{})
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Addr() != addr.String() {
		t.Errorf("Addr() = %q, want %q", s.Addr(), addr)
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz over real socket = %d", resp.StatusCode)
	}
}
