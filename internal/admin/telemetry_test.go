package admin

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/tsdb"
)

var tt0 = time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)

// telemetryServer is a server over a fresh recorder (installed as o.Series)
// and an engine with the given rules (nil = tsdb.DefaultRules()) — the pair
// the bootstrap builds.
func telemetryServer(o *obs.Obs, rules []tsdb.Rule) *Server {
	if rules == nil {
		rules = tsdb.DefaultRules()
	}
	rec := tsdb.New(tsdb.Options{})
	o.Series = rec
	return New(o, Planes{Recorder: rec, Engine: tsdb.NewEngine(rec, o, rules)})
}

// TestTelemetryEndpointsDisabled: a plane that was not handed to New has no
// routes — 404, and nothing on the index page — rather than routes that
// answer "not enabled".
func TestTelemetryEndpointsDisabled(t *testing.T) {
	ts := httptest.NewServer(New(obs.Nop(), Planes{}).Handler())
	defer ts.Close()
	_, index, _ := get(t, ts, "/")
	for _, path := range []string{"/debug/timeseries", "/alerts", "/debug/stream", "/debug/series",
		"/debug/streams"} {
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

	now := time.Now()
	for i := 0; i < 10; i++ {
		rec.Observe("transfer.task.t1.throughput", now.Add(time.Duration(i-10)*time.Second), float64(i))
	}
	rec.Observe("other.series", now, 1)

	code, body, hdr := get(t, ts, "/debug/timeseries?series=transfer.task.")
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
	if len(out.Series) != 1 || out.Series[0].Name != "transfer.task.t1.throughput" {
		t.Fatalf("series = %+v, want only the task series", out.Series)
	}
	if len(out.Series[0].Points) != 10 {
		t.Errorf("points = %d, want 10", len(out.Series[0].Points))
	}

	// Relative since + step: only the last ~5s, rebucketed at 2s.
	code, body, _ = get(t, ts, "/debug/timeseries?series=transfer.task.&since=5s&step=2s")
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
	_, body, _ = get(t, ts, "/debug/timeseries?series=transfer.task.&since="+since)
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

func TestAlertsEndpoint(t *testing.T) {
	o := obs.Nop()
	s := telemetryServer(o, []tsdb.Rule{
		{Name: "calm", Series: "x", Kind: tsdb.KindThreshold, Op: tsdb.OpGreater, Value: 100},
		{Name: "hot", Series: "x", Kind: tsdb.KindThreshold, Op: tsdb.OpGreater, Value: 1},
	})
	rec, eng := s.p.Recorder, s.p.Engine
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rec.Observe("x", tt0, 50)
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

// sseClient tails /debug/stream, recording event names and raw frames.
type sseClient struct {
	mu     sync.Mutex
	events []string
	raw    []string
	done   chan struct{}
}

func startSSE(t *testing.T, ts *httptest.Server) *sseClient {
	t.Helper()
	c := &sseClient{done: make(chan struct{})}
	resp, err := ts.Client().Get(ts.URL + "/debug/stream")
	if err != nil {
		t.Fatalf("GET /debug/stream: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		resp.Body.Close()
		t.Fatalf("stream Content-Type = %q", ct)
	}
	t.Cleanup(func() { resp.Body.Close() })
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.raw = append(c.raw, line)
			if strings.HasPrefix(line, "event: ") {
				c.events = append(c.events, strings.TrimPrefix(line, "event: "))
			}
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *sseClient) snapshot() (events, raw []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.events...), append([]string(nil), c.raw...)
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

func TestStreamMultiClientDelivery(t *testing.T) {
	o := obs.Nop()
	s := telemetryServer(o, []tsdb.Rule{})
	defer s.Start()()
	ts := httptest.NewServer(s.Handler())
	// Cleanup, not defer: the SSE response bodies (closed by startSSE's
	// later-registered cleanups) must close before ts.Close, or Close
	// waits forever on the live streams.
	t.Cleanup(ts.Close)

	c1 := startSSE(t, ts)
	c2 := startSSE(t, ts)
	waitFor(t, "both clients subscribed", func() bool { return s.hub.count() == 2 })

	// An eventlog append fans out to every client.
	o.EventLog().Append("transfer.start", "task", "t1")
	for _, c := range []*sseClient{c1, c2} {
		waitFor(t, "event frame", func() bool {
			events, _ := c.snapshot()
			for _, e := range events {
				if e == "event" {
					return true
				}
			}
			return false
		})
	}
	_, raw := c1.snapshot()
	found := false
	for _, line := range raw {
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"transfer.start"`) {
			found = true
		}
	}
	if !found {
		t.Errorf("event payload missing from frames: %v", raw)
	}

	// Metric deltas: bump a counter, the delta publisher broadcasts it.
	o.Registry().Counter("transfer.tasks_total").Add(3)
	waitFor(t, "metrics frame", func() bool {
		events, _ := c2.snapshot()
		for _, e := range events {
			if e == "metrics" {
				return true
			}
		}
		return false
	})
}

func TestStreamSlowClientEviction(t *testing.T) {
	s := telemetryServer(obs.Nop(), nil)

	// Subscribe directly at the hub and never drain: once the buffer
	// overflows the hub must evict (close) the client rather than block
	// the broadcaster.
	_, ch := s.hub.subscribe()
	if s.hub.count() != 1 {
		t.Fatalf("clients = %d, want 1", s.hub.count())
	}
	for i := 0; i < streamBuffer+5; i++ {
		s.hub.broadcast(jsonFrame("event", map[string]int{"i": i}))
	}
	if s.hub.count() != 0 {
		t.Fatalf("slow client not evicted: %d clients", s.hub.count())
	}
	// The channel was closed with exactly the buffered frames inside.
	n := 0
	for range ch {
		n++
	}
	if n != streamBuffer {
		t.Errorf("drained %d frames, want %d", n, streamBuffer)
	}

	// End-to-end: a client that disconnects is unsubscribed by its
	// handler, so the hub's view returns to zero.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/debug/stream")
	if err != nil {
		t.Fatalf("GET /debug/stream: %v", err)
	}
	waitFor(t, "stream subscribed", func() bool { return s.hub.count() == 1 })
	resp.Body.Close()
	waitFor(t, "handler unsubscribed", func() bool { return s.hub.count() == 0 })
}

func TestStreamHeartbeat(t *testing.T) {
	s := telemetryServer(obs.Nop(), nil)
	s.heartbeat = 20 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // before startSSE's body-close cleanup (LIFO)

	c := startSSE(t, ts)
	waitFor(t, "heartbeat comments", func() bool {
		_, raw := c.snapshot()
		n := 0
		for _, line := range raw {
			if line == ": hb" {
				n++
			}
		}
		return n >= 2
	})
}

func TestEnableTelemetrySamplesAndAlerts(t *testing.T) {
	o := obs.Nop()
	s := telemetryServer(o, nil)
	stop := s.Start()
	defer stop()
	rec := s.p.Recorder
	// The sampler picks up registry state in the background (1s cadence).
	o.Registry().Gauge("g").Set(9)
	waitFor(t, "background sample", func() bool {
		p, ok := rec.Latest("g")
		return ok && p.V == 9
	})
	// Components feed explicit timelines through the obs bundle.
	o.TimeSeries().Observe("transfer.task.x.throughput", time.Now(), 1e6)
	if _, ok := rec.Latest("transfer.task.x.throughput"); !ok {
		t.Fatal("o.Series observation did not reach the recorder")
	}
	stop()
	stop() // idempotent
}

func TestStreamLastEventIDResume(t *testing.T) {
	o := obs.Nop()
	s := telemetryServer(o, []tsdb.Rule{})
	defer s.Start()()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Three events happen while the "dashboard" is disconnected.
	e1 := o.EventLog().Append("transfer.start", "task", "t1")
	o.EventLog().Append("transfer.progress", "task", "t1")
	o.EventLog().Append("transfer.done", "task", "t1")

	// Reconnect having seen only the first event: the two missed events
	// replay immediately, each with its id line.
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/debug/stream", nil)
	req.Header.Set("Last-Event-ID", strconv.FormatInt(e1.Seq, 10))
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })

	c := &sseClient{done: make(chan struct{})}
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			c.raw = append(c.raw, line)
			if strings.HasPrefix(line, "event: ") {
				c.events = append(c.events, strings.TrimPrefix(line, "event: "))
			}
			c.mu.Unlock()
		}
	}()

	countPayload := func(substr string) int {
		_, raw := c.snapshot()
		n := 0
		for _, line := range raw {
			if strings.HasPrefix(line, "data: ") && strings.Contains(line, substr) {
				n++
			}
		}
		return n
	}
	waitFor(t, "replayed events", func() bool {
		return countPayload(`"transfer.progress"`) == 1 && countPayload(`"transfer.done"`) == 1
	})
	if got := countPayload(`"transfer.start"`); got != 0 {
		t.Errorf("event before Last-Event-ID replayed %d times, want 0", got)
	}
	// id lines carry the eventlog sequence numbers.
	_, raw := c.snapshot()
	ids := 0
	for _, line := range raw {
		if strings.HasPrefix(line, "id: ") {
			if _, err := strconv.ParseInt(strings.TrimPrefix(line, "id: "), 10, 64); err != nil {
				t.Errorf("bad id line %q", line)
			}
			ids++
		}
	}
	if ids != 2 {
		t.Errorf("got %d id lines after replay, want 2", ids)
	}

	// A live event arrives exactly once — the replay boundary must not
	// duplicate or swallow it.
	waitFor(t, "subscription live", func() bool { return s.hub.count() == 1 })
	o.EventLog().Append("transfer.start", "task", "t2")
	waitFor(t, "live event after resume", func() bool { return countPayload(`"t2"`) >= 1 })
	if got := countPayload(`"t2"`); got != 1 {
		t.Errorf("live event delivered %d times, want 1", got)
	}

	// A malformed Last-Event-ID is a 400, not a silent full replay.
	req2, _ := http.NewRequest(http.MethodGet, ts.URL+"/debug/stream", nil)
	req2.Header.Set("Last-Event-ID", "not-a-number")
	resp2, err := ts.Client().Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed Last-Event-ID: status %d, want 400", resp2.StatusCode)
	}
}
