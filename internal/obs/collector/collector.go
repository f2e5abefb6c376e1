// Package collector stitches span exports from multiple processes into
// distributed traces. Each process exports its completed spans as JSON
// (its admin plane's /debug/spans, saved or fetched; export.go reads it);
// the collector groups them by trace id, reconnects
// parent/child links across process boundaries, computes the critical
// path, and flags gaps — time inside the trace covered by no span, which
// is where un-instrumented work (or queueing) hides.
//
// The wire model is deliberately flat: a span is complete when exported
// (it has both start and end), identity is the lowercase-hex trace/span
// ids from internal/obs, and the process name is carried per span so one
// collector can hold exports from many daemons.
package collector

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// Span is one completed span as exported by a process.
type Span struct {
	TraceID      string            `json:"trace_id"`
	SpanID       string            `json:"span_id"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	Process      string            `json:"process"`
	Name         string            `json:"name"`
	Start        time.Time         `json:"start"`
	End          time.Time         `json:"end"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Err          string            `json:"err,omitempty"`
}

// Duration returns the span's wall-clock extent.
func (s Span) Duration() time.Duration { return s.End.Sub(s.Start) }

// FromInfos converts a tracer snapshot into exportable spans, labeling
// each with the process name. Open spans and spans without a trace id
// (from tracers predating trace-context support) are skipped: the
// collector only stitches completed work.
func FromInfos(process string, infos []obs.SpanInfo) []Span {
	out := make([]Span, 0, len(infos))
	for _, si := range infos {
		if !si.Ended || si.TraceID == "" || si.SpanID == "" {
			continue
		}
		out = append(out, Span{
			TraceID:      si.TraceID,
			SpanID:       si.SpanID,
			ParentSpanID: si.ParentSpanID,
			Process:      process,
			Name:         si.Name,
			Start:        si.Start,
			End:          si.Start.Add(si.Duration),
			Attrs:        si.Attrs,
			Err:          si.Err,
		})
	}
	return out
}

// Collector accumulates spans from any number of processes.
type Collector struct {
	mu     sync.Mutex
	traces map[string][]Span
	// seen indexes ingested (trace id, span id) pairs so reading the same
	// export twice is idempotent: a /debug/spans snapshot fetched again
	// holds every span the last one did, and duplicated spans would
	// corrupt stitched traces (double roots, inflated critical paths).
	seen map[string]map[string]bool
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{
		traces: make(map[string][]Span),
		seen:   make(map[string]map[string]bool),
	}
}

// Add ingests spans, grouping them by trace id. Spans without identity
// or without an end time are dropped (the export side should already
// have filtered them). Ingest is idempotent per (trace id, span id):
// the first copy of a span wins and later copies are ignored, so
// adding the same export again is safe.
func (c *Collector) Add(spans ...Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range spans {
		if s.TraceID == "" || s.SpanID == "" || s.End.IsZero() {
			continue
		}
		ids := c.seen[s.TraceID]
		if ids == nil {
			ids = make(map[string]bool)
			c.seen[s.TraceID] = ids
		}
		if ids[s.SpanID] {
			continue
		}
		ids[s.SpanID] = true
		c.traces[s.TraceID] = append(c.traces[s.TraceID], s)
	}
}

// TraceIDs lists the trace ids seen so far, sorted.
func (c *Collector) TraceIDs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.traces))
	for id := range c.traces {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Trace is one stitched multi-process trace.
type Trace struct {
	ID string
	// Spans holds every span of the trace in start order.
	Spans []Span
	// Roots are spans with no parent link — a healthy distributed trace
	// has exactly one.
	Roots []Span
	// Orphans reference a parent span id that no exported span carries:
	// a process in the trace did not export (or lost) its spans.
	Orphans []Span
}

// Stitch assembles the trace with the given id. The result is a snapshot;
// later Adds are not reflected. Returns nil if the trace id is unknown.
func (c *Collector) Stitch(traceID string) *Trace {
	c.mu.Lock()
	spans := append([]Span(nil), c.traces[traceID]...)
	c.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	byID := make(map[string]bool, len(spans))
	for _, s := range spans {
		byID[s.SpanID] = true
	}
	t := &Trace{ID: traceID, Spans: spans}
	for _, s := range spans {
		switch {
		case s.ParentSpanID == "":
			t.Roots = append(t.Roots, s)
		case !byID[s.ParentSpanID]:
			t.Orphans = append(t.Orphans, s)
		}
	}
	return t
}

// Connected reports whether the trace forms a single tree: exactly one
// root and no orphaned parent references.
func (t *Trace) Connected() bool {
	return t != nil && len(t.Roots) == 1 && len(t.Orphans) == 0
}

// Children returns the direct children of the span with the given id,
// in start order.
func (t *Trace) Children(spanID string) []Span {
	var out []Span
	for _, s := range t.Spans {
		if s.ParentSpanID == spanID {
			out = append(out, s)
		}
	}
	return out
}

// CriticalPath walks from the earliest root down through the child that
// ends latest at each level — the chain of spans that bounds the trace's
// wall-clock time. Shortening any span on the path shortens the trace;
// spans off the path overlap something slower.
func (t *Trace) CriticalPath() []Span {
	if t == nil || len(t.Roots) == 0 {
		return nil
	}
	cur := t.Roots[0]
	path := []Span{cur}
	for {
		children := t.Children(cur.SpanID)
		if len(children) == 0 {
			return path
		}
		next := children[0]
		for _, ch := range children[1:] {
			if ch.End.After(next.End) {
				next = ch
			}
		}
		path = append(path, next)
		cur = next
	}
}

// Gap is an interval inside the trace's extent covered by no span.
type Gap struct {
	Start time.Time
	End   time.Time
}

// Duration returns the gap's extent.
func (g Gap) Duration() time.Duration { return g.End.Sub(g.Start) }

// Gaps returns the subintervals of [trace start, trace end] that no span
// covers. Under nested instrumentation these are the blind spots: work
// (or waiting) that happened inside the trace but inside no span.
func (t *Trace) Gaps() []Gap {
	if t == nil || len(t.Spans) == 0 {
		return nil
	}
	type iv struct{ s, e time.Time }
	ivs := make([]iv, 0, len(t.Spans))
	for _, s := range t.Spans {
		ivs = append(ivs, iv{s.Start, s.End})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].s.Before(ivs[j].s) })
	var gaps []Gap
	covered := ivs[0].e
	for _, v := range ivs[1:] {
		if v.s.After(covered) {
			gaps = append(gaps, Gap{Start: covered, End: v.s})
		}
		if v.e.After(covered) {
			covered = v.e
		}
	}
	return gaps
}

// timelineWidth is the character width of the Gantt bars.
const timelineWidth = 40

// Timeline renders the stitched trace as a per-process Gantt chart: one
// row per span in tree order (orphans last), with the process name, the
// offset from trace start, the duration, a scaled bar, and a '*' marker
// on critical-path spans. Gaps are listed below the chart.
func (t *Trace) Timeline() string {
	if t == nil || len(t.Spans) == 0 {
		return ""
	}
	start, end := t.Spans[0].Start, t.Spans[0].End
	for _, s := range t.Spans {
		if s.Start.Before(start) {
			start = s.Start
		}
		if s.End.After(end) {
			end = s.End
		}
	}
	total := end.Sub(start)
	if total <= 0 {
		total = time.Nanosecond
	}
	critical := make(map[string]bool)
	for _, s := range t.CriticalPath() {
		critical[s.SpanID] = true
	}

	var b strings.Builder
	fmt.Fprintf(&b, "trace %s  %d spans  %v total", t.ID, len(t.Spans), total.Round(time.Microsecond))
	if !t.Connected() {
		fmt.Fprintf(&b, "  [DISCONNECTED: %d roots, %d orphans]", len(t.Roots), len(t.Orphans))
	}
	b.WriteByte('\n')

	row := func(s Span, depth int, orphan bool) {
		off := s.Start.Sub(start)
		lo := int(float64(off) / float64(total) * timelineWidth)
		hi := int(float64(s.End.Sub(start)) / float64(total) * timelineWidth)
		if hi <= lo {
			hi = lo + 1
		}
		if hi > timelineWidth {
			hi = timelineWidth
		}
		bar := strings.Repeat(" ", lo) + strings.Repeat("#", hi-lo) + strings.Repeat(" ", timelineWidth-hi)
		mark := " "
		if critical[s.SpanID] {
			mark = "*"
		}
		label := strings.Repeat("  ", depth) + s.Name
		if orphan {
			label += " (orphan)"
		}
		if s.Err != "" {
			label += " !err"
		}
		fmt.Fprintf(&b, "%s %-16s %-28s +%-10v %-10v |%s|\n",
			mark, s.Process, label, off.Round(time.Microsecond), s.Duration().Round(time.Microsecond), bar)
	}
	var render func(s Span, depth int, orphan bool)
	render = func(s Span, depth int, orphan bool) {
		row(s, depth, orphan)
		for _, ch := range t.Children(s.SpanID) {
			render(ch, depth+1, false)
		}
	}
	for _, r := range t.Roots {
		render(r, 0, false)
	}
	for _, o := range t.Orphans {
		render(o, 0, true)
	}
	if gaps := t.Gaps(); len(gaps) > 0 {
		b.WriteString("gaps (time inside trace covered by no span):\n")
		for _, g := range gaps {
			fmt.Fprintf(&b, "  +%v .. +%v  (%v)\n",
				g.Start.Sub(start).Round(time.Microsecond),
				g.End.Sub(start).Round(time.Microsecond),
				g.Duration().Round(time.Microsecond))
		}
	}
	return b.String()
}
