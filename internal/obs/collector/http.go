package collector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
)

// pushPayload is the body of a POST /v1/spans: the exporting process's
// name plus its completed spans. Span.Process, when empty, defaults to
// the payload-level name so exporters need not repeat it per span.
type pushPayload struct {
	Process string `json:"process"`
	Spans   []Span `json:"spans"`
}

// Handler returns the collector's HTTP plane:
//
//	POST /v1/spans      ingest a span export ({"process": ..., "spans": [...]})
//	GET  /v1/traces     list known trace ids (JSON array)
//	GET  /v1/has?id=    exemplar→trace resolution: {"found": bool, "spans": n}
//	GET  /v1/trace?id=  one stitched trace: spans, roots, orphans,
//	                    critical path, gaps, and the rendered timeline
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/spans", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 16<<20))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		spans, err := ParseExport(body, "")
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		c.Add(spans...)
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/v1/traces", func(w http.ResponseWriter, r *http.Request) {
		expfmt.ServeJSON(w, c.TraceIDs())
	})
	mux.HandleFunc("/v1/has", func(w http.ResponseWriter, r *http.Request) {
		// Lightweight exemplar→trace resolution: a fleet dashboard holding
		// an exemplar trace id asks whether the collector can expand it
		// before linking, without paying for a full stitch.
		id := r.URL.Query().Get("id")
		expfmt.ServeJSON(w, map[string]any{
			"id": id, "found": c.HasTrace(id), "spans": c.SpanCount(id),
		})
	})
	mux.HandleFunc("/v1/trace", func(w http.ResponseWriter, r *http.Request) {
		id := r.URL.Query().Get("id")
		t := c.Stitch(id)
		if t == nil {
			http.Error(w, "unknown trace id", http.StatusNotFound)
			return
		}
		expfmt.ServeJSON(w, map[string]any{
			"id":            t.ID,
			"connected":     t.Connected(),
			"spans":         t.Spans,
			"roots":         t.Roots,
			"orphans":       t.Orphans,
			"critical_path": t.CriticalPath(),
			"gaps":          t.Gaps(),
			"timeline":      t.Timeline(),
		})
	})
	return mux
}

// Push exports a tracer snapshot to a collector's /v1/spans endpoint.
// It is best-effort by design — daemons call it on shutdown — so the
// caller decides whether a failure is worth logging.
func Push(url, process string, infos []obs.SpanInfo) error {
	spans := FromInfos(process, infos)
	body, err := json.Marshal(pushPayload{Process: process, Spans: spans})
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("collector: push to %s: %w", url, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 300 {
		return fmt.Errorf("collector: push to %s: %s", url, resp.Status)
	}
	return nil
}

// exportNode is the tolerant union of the two span export shapes: the
// collector's flat push payload (start/end timestamps) and the admin
// plane's nested /debug/spans tree (duration_ms + ended + children).
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

// ParseExport decodes a span export in either supported shape — a push
// payload or an admin /debug/spans snapshot — into flat spans. Spans
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
