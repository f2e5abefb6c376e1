package admin

// The live half of the telemetry plane: /debug/stream, the SSE feed of
// metric deltas, new events and alert transitions, with heartbeats and
// slow-client eviction — and Server.Start, which runs the loops that feed
// it and the recorder. (/debug/timeseries and /alerts are tsdb's own
// handlers.)

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// streamFrame is one SSE message: an event name plus a JSON payload.
// Frames carrying an eventlog entry also carry its monotone sequence
// number as the SSE id, which is what makes Last-Event-ID resume work;
// id 0 means the frame type has no resume semantics (metrics, alerts).
type streamFrame struct {
	event string
	data  []byte
	id    int64
}

// streamBuffer is each /debug/stream client's channel depth. A client
// that falls this far behind the broadcast stream is evicted — the feed
// is a live tail, not a reliable queue, and a stalled reader must not
// block the eventlog tap that feeds it.
const streamBuffer = 64

// streamHub fans frames out to the connected /debug/stream clients.
type streamHub struct {
	mu      sync.Mutex
	clients map[int]chan streamFrame
	next    int
}

func (h *streamHub) subscribe() (int, chan streamFrame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.clients == nil {
		h.clients = make(map[int]chan streamFrame)
	}
	id := h.next
	h.next++
	ch := make(chan streamFrame, streamBuffer)
	h.clients[id] = ch
	return id, ch
}

func (h *streamHub) unsubscribe(id int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.clients, id)
}

func (h *streamHub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.clients)
}

// broadcast delivers the frame to every client without ever blocking:
// the callers are synchronous taps inside eventlog.Append and
// Engine.Eval. A client whose buffer is full is evicted (channel closed)
// so one stalled curl cannot make the whole process's event path lag.
func (h *streamHub) broadcast(f streamFrame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, ch := range h.clients {
		select {
		case ch <- f:
		default:
			close(ch)
			delete(h.clients, id)
		}
	}
}

func jsonFrame(event string, v any) streamFrame {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(fmt.Sprintf(`{"marshal_error":%q}`, err.Error()))
	}
	return streamFrame{event: event, data: data}
}

// Start runs the recording pipeline over the server's recorder and
// engine: the background registry sampler (registry → recorder → alert
// evaluation), the live-stream taps, and the metric-delta publisher. The
// returned stop halts all three; it is idempotent. A server without a
// recorder has nothing to run.
func (s *Server) Start() (stop func()) {
	o, rec, eng := s.o, s.p.Recorder, s.p.Engine
	if rec == nil {
		return func() {}
	}

	// Live-stream taps: every appended event and every alert transition
	// becomes an SSE frame the moment it happens.
	untapEvents := o.EventLog().Tap(func(ev eventlog.Event) {
		f := jsonFrame("event", ev)
		f.id = ev.Seq
		s.hub.broadcast(f)
	})
	untapAlerts := eng.Tap(func(tr tsdb.Transition) {
		s.hub.broadcast(jsonFrame("alert", tr))
	})

	// Background sampler: registry → recorder → alert evaluation.
	stopSampler := rec.Start(o.Registry(), eng)

	// Metric-delta publisher: on each sampling interval, send connected
	// stream clients only the counters/gauges that changed since the last
	// tick — a live diff, cheap enough to run at the raw cadence.
	prev := make(map[string]int64)
	stopDeltas := obs.Every(rec.Options().RawStep, func(now time.Time) {
		// With no client connected the values are still tracked, so a new
		// client's first delta frame is a diff, not a full dump.
		watched := s.hub.count() > 0
		changed := make(map[string]int64)
		for _, m := range o.Registry().Snapshot() {
			if v, ok := prev[m.Name]; watched && (!ok || v != m.Value) {
				changed[m.Name] = m.Value
			}
			prev[m.Name] = m.Value
		}
		if len(changed) > 0 {
			s.hub.broadcast(jsonFrame("metrics", map[string]any{
				"t": now.UTC(), "changed": changed,
			}))
		}
	})

	return func() { // every part is idempotent by itself
		stopDeltas()
		stopSampler()
		untapEvents()
		untapAlerts()
	}
}

// streamHeartbeat is the default keepalive cadence for /debug/stream;
// tests shrink Server.heartbeat to observe it without waiting.
const streamHeartbeat = 15 * time.Second

func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	// Validate the resume cursor before committing the 200/SSE headers.
	resume := int64(-1)
	if raw := r.Header.Get("Last-Event-ID"); raw != "" {
		lastID, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || lastID < 0 {
			http.Error(w, "bad Last-Event-ID", http.StatusBadRequest)
			return
		}
		resume = lastID
	}

	id, ch := s.hub.subscribe()
	defer s.hub.unsubscribe(id)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	if _, err := fmt.Fprintf(w, ": connected client=%d\n\n", id); err != nil {
		return
	}
	fl.Flush()

	writeFrame := func(f streamFrame) bool {
		if f.id > 0 {
			if _, err := fmt.Fprintf(w, "id: %d\n", f.id); err != nil {
				return false
			}
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.event, f.data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}

	// Last-Event-ID resume: replay retained events the client missed
	// while disconnected. The subscription is already live, so an event
	// appended during the replay is not lost — it arrives on the channel
	// and is skipped there if the replay already covered it.
	var replayed int64
	if resume >= 0 {
		for _, ev := range s.o.EventLog().Events() {
			if ev.Seq <= resume {
				continue
			}
			f := jsonFrame("event", ev)
			f.id = ev.Seq
			if !writeFrame(f) {
				return
			}
			replayed = ev.Seq
		}
	}

	hb := s.heartbeat
	if hb <= 0 {
		hb = streamHeartbeat
	}
	tick := time.NewTicker(hb)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-tick.C:
			// SSE comment frame: keeps proxies and clients from timing
			// out an idle feed without emitting a data event.
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				return
			}
			fl.Flush()
		case f, ok := <-ch:
			if !ok {
				// Evicted by the hub for falling behind; the closed
				// channel is the signal to hang up.
				return
			}
			if f.id > 0 && f.id <= replayed {
				continue // already delivered by the resume replay
			}
			if !writeFrame(f) {
				return
			}
		}
	}
}
