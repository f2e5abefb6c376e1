package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Tracer is a lightweight span store: spans are started (optionally under
// a parent), annotated with attributes, and ended; the tracer keeps a
// bounded buffer of spans so a long-running server cannot grow without
// limit. In-process, a *Span pointer is the trace context; across
// processes, Span.Context carries the trace/span ids that Inject/Extract
// move over the wire and StartSpanContext rebinds on the far side.
type Tracer struct {
	mu     sync.Mutex
	nextID int64
	// ring holds the retained spans. It grows by append up to maxSpans;
	// from then on it is a fixed ring in which head is the oldest span's
	// slot and the next span to start overwrites it, so a full tracer
	// costs a long-running daemon nothing per span beyond the span itself.
	ring []*Span
	head int
}

// maxSpans bounds the tracer's buffer; older spans are evicted whole-tree
// agnostic (oldest first).
const maxSpans = 4096

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{}
}

// Span is one timed operation. Fields are guarded by mu; the identity
// fields (ids, parent links, name, start) are immutable after creation.
type Span struct {
	tracer *Tracer
	ID     int64
	Parent int64 // 0 = no local parent (locally rooted)
	Name   string
	Start  time.Time

	// Cross-process identity. TraceID is shared by every span of one
	// trace (inherited from the parent, or from a remote SpanContext, or
	// freshly generated for a root). ParentSpanID is the wire id of the
	// parent span — the local parent's, or the remote caller's for spans
	// started via StartSpanContext; zero for true roots.
	TraceID      TraceID
	SpanID       SpanID
	ParentSpanID SpanID

	mu    sync.Mutex
	end   time.Time
	attrs []field
	err   string
}

// StartSpan begins a root span with a freshly generated trace id.
func (t *Tracer) StartSpan(name string) *Span {
	return t.startSpan(name, 0, newTraceID(), SpanID{})
}

// StartSpanContext begins a span as a remote child of sc: it joins sc's
// trace and records sc's span id as its parent, while remaining a local
// root (Parent == 0) in this process's forest. An invalid sc degrades to
// StartSpan — a fresh local trace — so callers never need to branch on
// whether a peer propagated context.
func (t *Tracer) StartSpanContext(name string, sc SpanContext) *Span {
	if !sc.Valid() {
		return t.StartSpan(name)
	}
	return t.startSpan(name, 0, sc.TraceID, sc.SpanID)
}

func (t *Tracer) startSpan(name string, parent int64, tid TraceID, parentSpanID SpanID) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.nextID++
	s := &Span{
		tracer: t, ID: t.nextID, Parent: parent, Name: name, Start: time.Now(),
		TraceID: tid, SpanID: newSpanID(), ParentSpanID: parentSpanID,
	}
	if len(t.ring) < maxSpans {
		t.ring = append(t.ring, s)
	} else {
		t.ring[t.head] = s
		t.head = (t.head + 1) % maxSpans
	}
	t.mu.Unlock()
	return s
}

// Child begins a span parented to s, inheriting its trace id. A nil
// receiver returns nil, so call chains off an absent tracer stay safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tracer.startSpan(name, s.ID, s.TraceID, s.SpanID)
}

// Context returns the span's propagatable identity. A nil receiver
// returns the invalid zero context, which Inject renders as "".
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID}
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, field{key: key, val: fmt.Sprint(value)})
	s.mu.Unlock()
}

// SetError records an error on the span (nil err is a no-op).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// End marks the span finished. Ending twice keeps the first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// SpanInfo is an immutable snapshot of one span. TraceID/SpanID/
// ParentSpanID are the lowercase-hex wire ids (ParentSpanID is empty for
// true roots).
type SpanInfo struct {
	ID           int64
	Parent       int64
	Name         string
	TraceID      string
	SpanID       string
	ParentSpanID string
	Start        time.Time
	Duration     time.Duration
	Ended        bool
	Attrs        map[string]string
	Err          string
}

// Spans returns snapshots of all retained spans in start order.
func (t *Tracer) Spans() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := make([]*Span, 0, len(t.ring))
	spans = append(append(spans, t.ring[t.head:]...), t.ring[:t.head]...)
	t.mu.Unlock()
	out := make([]SpanInfo, 0, len(spans))
	for _, s := range spans {
		s.mu.Lock()
		info := SpanInfo{
			ID: s.ID, Parent: s.Parent, Name: s.Name, Start: s.Start,
			TraceID: s.TraceID.String(), SpanID: s.SpanID.String(),
			Ended: !s.end.IsZero(), Err: s.err,
			Attrs: make(map[string]string, len(s.attrs)),
		}
		if !s.ParentSpanID.IsZero() {
			info.ParentSpanID = s.ParentSpanID.String()
		}
		if info.Ended {
			info.Duration = s.end.Sub(s.Start)
		}
		for _, f := range s.attrs {
			info.Attrs[f.key] = f.val
		}
		s.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// Roots returns the retained root spans (Parent == 0) in start order.
func (t *Tracer) Roots() []SpanInfo {
	var out []SpanInfo
	for _, s := range t.Spans() {
		if s.Parent == 0 {
			out = append(out, s)
		}
	}
	return out
}

// Children returns the direct children of the span with the given id.
func (t *Tracer) Children(id int64) []SpanInfo {
	var out []SpanInfo
	for _, s := range t.Spans() {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// TreeString renders all retained spans as an indented forest, one span
// per line: name, duration, attributes, and error if any.
func (t *Tracer) TreeString() string {
	spans := t.Spans()
	children := make(map[int64][]SpanInfo)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var b strings.Builder
	var render func(parent int64, depth int)
	render = func(parent int64, depth int) {
		for _, s := range children[parent] {
			b.WriteString(strings.Repeat("  ", depth))
			b.WriteString(s.Name)
			if s.Ended {
				fmt.Fprintf(&b, " %v", s.Duration.Round(time.Microsecond))
			} else {
				b.WriteString(" (open)")
			}
			if len(s.Attrs) > 0 {
				keys := make([]string, 0, len(s.Attrs))
				for k := range s.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(&b, " %s=%s", k, quoteIfNeeded(s.Attrs[k]))
				}
			}
			if s.Err != "" {
				fmt.Fprintf(&b, " err=%s", quoteIfNeeded(s.Err))
			}
			b.WriteByte('\n')
			render(s.ID, depth+1)
		}
	}
	render(0, 0)
	return b.String()
}
