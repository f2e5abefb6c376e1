package collector

import (
	"encoding/json"
	"fmt"
	"time"
)

// exportNode is the tolerant union of the two span export shapes: flat
// Spans with start/end timestamps (what FromInfos and a Trace marshal to —
// CI's stitched-trace artifact) and the admin plane's nested /debug/spans
// tree (duration_ms + ended + children).
type exportNode struct {
	TraceID      string            `json:"trace_id"`
	SpanID       string            `json:"span_id"`
	ParentSpanID string            `json:"parent_span_id"`
	Process      string            `json:"process"`
	Name         string            `json:"name"`
	Start        time.Time         `json:"start"`
	End          time.Time         `json:"end"`
	DurationMS   float64           `json:"duration_ms"`
	Ended        bool              `json:"ended"`
	Attrs        map[string]string `json:"attrs"`
	Err          string            `json:"err"`
	Children     []exportNode      `json:"children"`
}

// ParseExport decodes a span export in either supported shape — a
// {"process", "spans": [flat Span...]} document or an admin /debug/spans
// snapshot — into flat spans. Spans
// without trace identity or without an end (still open, or from a build
// predating trace context) are skipped, not errors: scraping a live
// process must not fail because some spans are in flight. defaultProcess
// labels spans that carry no process name of their own.
func ParseExport(data []byte, defaultProcess string) ([]Span, error) {
	var payload struct {
		Process string       `json:"process"`
		Spans   []exportNode `json:"spans"`
	}
	if err := json.Unmarshal(data, &payload); err != nil {
		return nil, fmt.Errorf("collector: bad span export: %w", err)
	}
	fallback := payload.Process
	if fallback == "" {
		fallback = defaultProcess
	}
	var out []Span
	var walk func(n exportNode)
	walk = func(n exportNode) {
		end := n.End
		if end.IsZero() && n.Ended {
			end = n.Start.Add(time.Duration(n.DurationMS * float64(time.Millisecond)))
		}
		if n.TraceID != "" && n.SpanID != "" && !end.IsZero() {
			proc := n.Process
			if proc == "" {
				proc = fallback
			}
			out = append(out, Span{
				TraceID:      n.TraceID,
				SpanID:       n.SpanID,
				ParentSpanID: n.ParentSpanID,
				Process:      proc,
				Name:         n.Name,
				Start:        n.Start,
				End:          end,
				Attrs:        n.Attrs,
				Err:          n.Err,
			})
		}
		for _, ch := range n.Children {
			walk(ch)
		}
	}
	for _, n := range payload.Spans {
		walk(n)
	}
	return out, nil
}
