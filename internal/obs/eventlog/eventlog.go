// Package eventlog is a bounded in-memory ring of structured lifecycle
// and audit events: session open/close, authentication success/failure
// (with the subject DN), transfer start/complete/retry, restart-marker
// checkpoints, endpoint installs. It complements the metrics registry —
// metrics answer "how many / how fast", the event log answers "what
// happened, in order, to whom".
//
// The ring is fixed-capacity: a long-running daemon keeps the most recent
// events and discards the oldest, so memory stays bounded no matter the
// traffic.
//
// Like the rest of internal/obs, a nil *Log is valid everywhere: all
// methods degrade to no-ops.
package eventlog

import (
	"fmt"
	"sync"
	"time"
)

// Common event types. Components qualify them with a "component" field
// rather than inventing per-component type names, so /debug/events?type=
// filtering works uniformly across the daemons.
const (
	SessionOpen      = "session.open"
	SessionClose     = "session.close"
	AuthSuccess      = "auth.success"
	AuthFailure      = "auth.failure"
	TransferStart    = "transfer.start"
	TransferComplete = "transfer.complete"
	TransferAbort    = "transfer.abort"
	TransferRetry    = "transfer.retry"
	Checkpoint       = "transfer.checkpoint"
	// TransferWire is the scheduler's per-attempt wire-evidence record:
	// retransmit totals, worst inter-stream imbalance, and stall-abort
	// count aggregated from the stream-telemetry plane for one attempt.
	TransferWire    = "transfer.wire"
	TaskStart       = "task.start"
	TaskComplete    = "task.complete"
	EndpointInstall = "endpoint.install"
	// AlertFiring/AlertResolved record SLO alert transitions from the
	// tsdb alert engine, so firings live in the same audit stream as the
	// lifecycle events that explain them.
	AlertFiring   = "alert.firing"
	AlertResolved = "alert.resolved"
	// StreamStalled/StreamRecovered record the stream-stall watchdog's
	// transitions (internal/obs/streamstats): a data stream with no
	// progress past the stall window, and its later recovery (renewed
	// progress, or the transfer ending).
	StreamStalled   = "stream.stalled"
	StreamRecovered = "stream.recovered"
)

// Event is one recorded occurrence. Seq increases monotonically per log
// and never resets, so a scraper can detect both gaps (ring overflow) and
// its own resume point.
type Event struct {
	Seq    int64             `json:"seq"`
	Time   time.Time         `json:"time"`
	Type   string            `json:"type"`
	Fields map[string]string `json:"fields,omitempty"`
}

// Log is a concurrency-safe bounded event ring.
type Log struct {
	mu   sync.Mutex
	cap  int
	seq  int64
	buf  []Event
	head int // index of the oldest retained event
	n    int // number of retained events
}

// DefaultCapacity is the ring size New uses for capacity <= 0.
const DefaultCapacity = 1024

// New returns an empty log retaining at most capacity events.
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Log{cap: capacity, buf: make([]Event, capacity)}
}

// Append records an event of the given type; kv are key/value pairs
// (values are rendered with fmt.Sprint, a trailing odd key is dropped).
// The recorded event is returned.
func (l *Log) Append(typ string, kv ...any) Event {
	if l == nil {
		return Event{}
	}
	fields := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		fields[fmt.Sprint(kv[i])] = fmt.Sprint(kv[i+1])
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	ev := Event{Seq: l.seq, Time: time.Now(), Type: typ, Fields: fields}
	if l.n < l.cap {
		l.buf[(l.head+l.n)%l.cap] = ev
		l.n++
	} else {
		l.buf[l.head] = ev
		l.head = (l.head + 1) % l.cap
	}
	return ev
}

// Events returns the retained events, oldest first.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.buf[(l.head+i)%l.cap]
	}
	return out
}
