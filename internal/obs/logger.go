package obs

import (
	"context"
	"log/slog"
	"strings"
	"sync"
	"time"
)

// ringCapacity is how many records a logger tree keeps.
const ringCapacity = 1024

// handler is the slog.Handler under every Obs logger. A logger and all its
// With children share one ring, which keeps their last ringCapacity records
// at Info and above whatever level the output is set to. The ring is the
// lifecycle and audit record — session, auth, transfer, task, stall, alert —
// that /debug/events serves. Records the output enables go on to it.
type handler struct {
	ring   *ring        // nil keeps nothing
	out    slog.Handler // the text output
	with   []slog.Attr  // With attrs, keys qualified by their groups; never written once shared
	prefix string       // the open groups, "a.b."
}

type ring struct {
	mu   sync.Mutex
	seq  int64
	buf  []kept // grows to ringCapacity, then head is the oldest record's slot
	head int
}

// kept is one record and the handler that took it, for its With attrs and
// groups. Its values are rendered when Events reads them, so a caller logs
// values it does not mutate afterwards (strings, numbers, errors).
type kept struct {
	seq int64
	rec slog.Record
	h   *handler
}

// Event is one kept record: Type is its message, Fields its With attrs and
// the call's pairs as fmt.Sprint renders them, plus "level". Seq grows by
// one a record and never resets, so a reader sees both a ring overflow and
// its own resume point.
type Event struct {
	Seq    int64             `json:"seq"`
	Time   time.Time         `json:"time"`
	Type   string            `json:"type"`
	Fields map[string]string `json:"fields,omitempty"`
}

func (h *handler) Enabled(ctx context.Context, level slog.Level) bool {
	return h.ring != nil && level >= slog.LevelInfo || h.out.Enabled(ctx, level)
}

func (h *handler) Handle(ctx context.Context, r slog.Record) error {
	if h.ring != nil && r.Level >= slog.LevelInfo {
		h.ring.keep(r.Clone(), h)
	}
	if h.out.Enabled(ctx, r.Level) {
		return h.out.Handle(ctx, r)
	}
	return nil
}

func (h *handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	c := *h
	c.out = h.out.WithAttrs(attrs)
	c.with = append([]slog.Attr(nil), h.with...)
	for _, a := range attrs {
		c.with = append(c.with, slog.Attr{Key: h.prefix + a.Key, Value: a.Value})
	}
	return &c
}

func (h *handler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	c := *h
	c.out = h.out.WithGroup(name)
	c.prefix += name + "."
	return &c
}

func (r *ring) keep(rec slog.Record, h *handler) {
	r.mu.Lock()
	r.seq++
	if k := (kept{r.seq, rec, h}); len(r.buf) < ringCapacity {
		r.buf = append(r.buf, k)
	} else {
		r.buf[r.head] = k
		r.head = (r.head + 1) % ringCapacity
	}
	r.mu.Unlock()
}

// Events returns the records the bundle's logger kept, oldest first; none
// when it keeps nothing.
func (o *Obs) Events() []Event {
	h, ok := o.Logger().Handler().(*handler)
	if !ok || h.ring == nil {
		return []Event{}
	}
	r := h.ring
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.buf))
	for i := range out {
		k := &r.buf[(r.head+i)%len(r.buf)]
		fields := make(map[string]string, len(k.h.with)+k.rec.NumAttrs()+1)
		for _, a := range k.h.with {
			fields[a.Key] = a.Value.Resolve().String()
		}
		k.rec.Attrs(func(a slog.Attr) bool {
			fields[k.h.prefix+a.Key] = a.Value.Resolve().String()
			return true
		})
		fields["level"] = strings.ToLower(k.rec.Level.String())
		out[i] = Event{Seq: k.seq, Time: k.rec.Time, Type: k.rec.Message, Fields: fields}
	}
	return out
}
