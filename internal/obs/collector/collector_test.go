package collector

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// threeProcessTrace simulates the hosted third-party scenario in-memory:
// a service tracer owns the task span tree, and two server tracers join
// the task's trace via propagated span context (what SITE TRACE does on
// the wire). Returns the collector exports and the task's trace id.
func threeProcessTrace(t *testing.T) (svc, src, dst []Span, traceID string) {
	t.Helper()
	svcTr := obs.NewTracer()
	task := svcTr.StartSpan("task")
	act := task.Child("activate")
	act.End()
	ctl := task.Child("control")
	ctl.End()

	srcTr := obs.NewTracer()
	retr := srcTr.StartSpanContext("gridftp.retr", task.Context())
	retr.End()
	dstTr := obs.NewTracer()
	stor := dstTr.StartSpanContext("gridftp.stor", task.Context())
	stor.End()

	data := task.Child("data")
	data.End()
	task.End()
	svcTr.StartSpan("still-open") // FromInfos exports completed spans only: six, not seven

	return FromInfos("transfer-service", svcTr.Spans()),
		FromInfos("gridftp-src", srcTr.Spans()),
		FromInfos("gridftp-dst", dstTr.Spans()),
		task.TraceID.String()
}

func TestStitchThreeProcesses(t *testing.T) {
	svc, src, dst, traceID := threeProcessTrace(t)
	c := New()
	c.Add(svc...)
	c.Add(src...)
	c.Add(dst...)

	ids := c.TraceIDs()
	if len(ids) != 1 || ids[0] != traceID {
		t.Fatalf("TraceIDs() = %v, want [%s]", ids, traceID)
	}
	tr := c.Stitch(traceID)
	if tr == nil {
		t.Fatal("Stitch returned nil")
	}
	if !tr.Connected() {
		t.Fatalf("trace not connected: %d roots, %d orphans\n%s",
			len(tr.Roots), len(tr.Orphans), tr.Timeline())
	}
	if len(tr.Spans) != 6 {
		t.Fatalf("%d spans, want 6", len(tr.Spans))
	}
	root := tr.Roots[0]
	if root.Name != "task" || root.Process != "transfer-service" {
		t.Fatalf("root = %s@%s, want task@transfer-service", root.Name, root.Process)
	}
	// Every non-root span must link (transitively) back to the root.
	names := map[string]string{}
	for _, s := range tr.Spans {
		names[s.SpanID] = s.Name
	}
	for _, s := range tr.Spans {
		if s.SpanID == root.SpanID {
			continue
		}
		if _, ok := names[s.ParentSpanID]; !ok {
			t.Errorf("span %s has dangling parent %s", s.Name, s.ParentSpanID)
		}
	}
	// The remote server spans are children of the task span.
	for _, want := range []string{"gridftp.retr", "gridftp.stor"} {
		found := false
		for _, ch := range tr.Children(root.SpanID) {
			if ch.Name == want {
				found = true
			}
		}
		if !found {
			t.Errorf("%s not stitched under the task span", want)
		}
	}

	cp := tr.CriticalPath()
	if len(cp) == 0 || cp[0].Name != "task" {
		t.Fatalf("critical path %v should start at the task root", cp)
	}
	tl := tr.Timeline()
	for _, want := range []string{"transfer-service", "gridftp-src", "gridftp-dst", "task", "*"} {
		if !strings.Contains(tl, want) {
			t.Errorf("timeline missing %q:\n%s", want, tl)
		}
	}
	if strings.Contains(tl, "DISCONNECTED") {
		t.Errorf("connected trace rendered as disconnected:\n%s", tl)
	}
}

// TestStitchMissingProcess drops one process's export (the service's) and
// checks the collector flags the damage instead of pretending the trace
// is whole.
func TestStitchMissingProcess(t *testing.T) {
	_, src, dst, traceID := threeProcessTrace(t)
	c := New()
	c.Add(src...)
	c.Add(dst...)

	tr := c.Stitch(traceID)
	if tr == nil {
		t.Fatal("Stitch returned nil")
	}
	if tr.Connected() {
		t.Fatal("trace with a missing process must not be connected")
	}
	if len(tr.Roots) != 0 {
		t.Errorf("%d roots, want 0 (the root lived in the missing process)", len(tr.Roots))
	}
	if len(tr.Orphans) != 2 {
		t.Errorf("%d orphans, want 2 (retr and stor lost their parent)", len(tr.Orphans))
	}
	tl := tr.Timeline()
	if !strings.Contains(tl, "DISCONNECTED") {
		t.Errorf("timeline should flag the disconnect:\n%s", tl)
	}
	if !strings.Contains(tl, "orphan") {
		t.Errorf("timeline should mark orphans:\n%s", tl)
	}
}

// mk builds a synthetic span with millisecond offsets from a fixed epoch.
func mk(trace, id, parent, process, name string, startMS, endMS int) Span {
	epoch := time.Unix(1700000000, 0)
	return Span{
		TraceID: trace, SpanID: id, ParentSpanID: parent,
		Process: process, Name: name,
		Start: epoch.Add(time.Duration(startMS) * time.Millisecond),
		End:   epoch.Add(time.Duration(endMS) * time.Millisecond),
	}
}

func TestCriticalPathPicksLatestEndingChain(t *testing.T) {
	c := New()
	c.Add(
		mk("t1", "a", "", "p1", "root", 0, 100),
		mk("t1", "b", "a", "p1", "fast", 0, 20),
		mk("t1", "c", "a", "p2", "slow", 10, 90),
		mk("t1", "d", "c", "p2", "inner", 20, 85),
	)
	tr := c.Stitch("t1")
	cp := tr.CriticalPath()
	var names []string
	for _, s := range cp {
		names = append(names, s.Name)
	}
	want := "root/slow/inner"
	if got := strings.Join(names, "/"); got != want {
		t.Fatalf("critical path %s, want %s", got, want)
	}
}

func TestGapsFindUncoveredTime(t *testing.T) {
	c := New()
	c.Add(
		mk("t2", "a", "", "p1", "phase1", 0, 30),
		mk("t2", "b", "a", "p2", "phase2", 60, 100),
	)
	tr := c.Stitch("t2")
	gaps := tr.Gaps()
	if len(gaps) != 1 {
		t.Fatalf("%d gaps, want 1: %v", len(gaps), gaps)
	}
	if d := gaps[0].Duration(); d != 30*time.Millisecond {
		t.Errorf("gap duration %v, want 30ms", d)
	}
	if !strings.Contains(tr.Timeline(), "gaps") {
		t.Errorf("timeline should list the gap:\n%s", tr.Timeline())
	}

	// A root covering the whole extent means no blind spots.
	c2 := New()
	c2.Add(
		mk("t3", "a", "", "p1", "root", 0, 100),
		mk("t3", "b", "a", "p1", "early", 0, 30),
		mk("t3", "c", "a", "p1", "late", 60, 100),
	)
	if gaps := c2.Stitch("t3").Gaps(); len(gaps) != 0 {
		t.Errorf("covered trace reports gaps: %v", gaps)
	}
}

// TestParseExportAdminShape feeds the collector the nested tree the admin
// plane's /debug/spans serves (duration_ms + ended + children) and checks
// it flattens into the same span model.
func TestParseExportAdminShape(t *testing.T) {
	epoch := time.Unix(1700000000, 0).UTC()
	doc := map[string]any{
		"spans": []any{
			map[string]any{
				"id": 1, "name": "task",
				"trace_id":    "0123456789abcdef0123456789abcdef",
				"span_id":     "0123456789abcdef",
				"start":       epoch.Format(time.RFC3339Nano),
				"duration_ms": 50.0, "ended": true,
				"children": []any{
					map[string]any{
						"id": 2, "name": "data",
						"trace_id":       "0123456789abcdef0123456789abcdef",
						"span_id":        "aaaabbbbccccdddd",
						"parent_span_id": "0123456789abcdef",
						"start":          epoch.Add(10 * time.Millisecond).Format(time.RFC3339Nano),
						"duration_ms":    30.0, "ended": true,
					},
					map[string]any{
						"id": 3, "name": "open-span",
						"trace_id": "0123456789abcdef0123456789abcdef",
						"span_id":  "eeeeffff00001111",
						"start":    epoch.Format(time.RFC3339Nano),
						"ended":    false,
					},
				},
			},
		},
	}
	data, _ := json.Marshal(doc)
	spans, err := ParseExport(data, "scraped-proc")
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("%d spans parsed, want 2 (open span skipped): %v", len(spans), spans)
	}
	if spans[0].Process != "scraped-proc" {
		t.Errorf("default process not applied: %q", spans[0].Process)
	}
	if got := spans[0].End.Sub(spans[0].Start); got != 50*time.Millisecond {
		t.Errorf("End reconstructed from duration_ms: got %v, want 50ms", got)
	}
	if spans[1].ParentSpanID != "0123456789abcdef" {
		t.Errorf("nested parent link lost: %q", spans[1].ParentSpanID)
	}

	c := New()
	c.Add(spans...)
	if tr := c.Stitch("0123456789abcdef0123456789abcdef"); !tr.Connected() {
		t.Error("admin-shaped export did not stitch into a connected trace")
	}
}

// TestIdempotentIngest: reading the same exports again (a /debug/spans
// snapshot fetched twice holds every span the first one did) must not
// duplicate spans in the stitched trace. The exports go through ParseExport
// in the flat shape — what FromInfos and CI's stitched-trace artifact
// marshal to.
func TestIdempotentIngest(t *testing.T) {
	svc, src, dst, traceID := threeProcessTrace(t)
	c := New()
	add := func(export []Span) {
		t.Helper()
		body, _ := json.Marshal(map[string]any{"spans": export})
		spans, err := ParseExport(body, "unused: every span names its process")
		if err != nil {
			t.Fatal(err)
		}
		c.Add(spans...)
	}
	for round := 0; round < 3; round++ {
		for _, export := range [][]Span{svc, src, dst} {
			add(export)
		}
		tr := c.Stitch(traceID)
		if !tr.Connected() || len(tr.Spans) != 6 || len(tr.Roots) != 1 {
			t.Fatalf("round %d: connected=%v spans=%d roots=%d, want one connected tree of 6",
				round, tr.Connected(), len(tr.Spans), len(tr.Roots))
		}
		for _, s := range tr.Spans {
			if strings.HasPrefix(s.Process, "unused") {
				t.Errorf("span %s lost its process name in the flat shape", s.Name)
			}
		}
	}
	if ids := c.TraceIDs(); len(ids) != 1 || ids[0] != traceID {
		t.Fatalf("TraceIDs = %v, want [%s]", ids, traceID)
	}
	if c.Stitch("feedfacefeedfacefeedfacefeedface") != nil {
		t.Error("an unknown trace id stitched to something")
	}
}
