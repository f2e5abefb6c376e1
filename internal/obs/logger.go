package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level is a log severity.
type Level int

// Severity levels, least to most severe.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String renders the level's canonical lowercase name.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "debug"
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// ParseLevel parses a level name (case-insensitive). ok is false for
// unknown names, including the empty string.
func ParseLevel(s string) (Level, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, true
	case "info":
		return LevelInfo, true
	case "warn", "warning":
		return LevelWarn, true
	case "error":
		return LevelError, true
	}
	return 0, false
}

// Logger is a leveled key=value logger. With() derives child loggers that
// carry permanent context fields (session id, remote DN, task id), so
// every line of one session is greppable by a stable key. A logger and all
// its With children share one output: the writer, and a ring that keeps
// their last ringCapacity lines at Info and above whatever level the writer
// is set to. The ring is the lifecycle and audit record — session, auth,
// transfer, task, stall, alert — that /debug/events serves.
type Logger struct {
	out    *output
	level  Level
	fields []field // permanent context, rendered after the message
}

type field struct {
	key string
	val string
}

// ringCapacity is how many lines a logger tree keeps.
const ringCapacity = 1024

// output is what a logger tree shares, behind one mutex.
type output struct {
	mu   sync.Mutex
	w    io.Writer
	seq  int64
	ring []kept // nil keeps nothing
	head int    // index of the oldest kept line
	n    int
}

// kept is one line in the ring. with is the logger's With slice, which is
// never written after With returns, so it is shared rather than copied.
type kept struct {
	seq   int64
	at    time.Time
	level Level
	msg   string
	with  []field
	kv    []field
}

// Event is one kept line: Type is its message, Fields its With fields and
// the call's pairs, plus "level". Seq grows by one a line and never resets,
// so a reader sees both a ring overflow and its own resume point.
type Event struct {
	Seq    int64             `json:"seq"`
	Time   time.Time         `json:"time"`
	Type   string            `json:"type"`
	Fields map[string]string `json:"fields,omitempty"`
}

// NewLogger creates a logger writing lines at or above level to w and
// keeping its lines at Info and above.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{out: &output{w: w, ring: make([]kept, ringCapacity)}, level: level}
}

// With returns a child logger whose lines all carry the given key=value
// pairs. Args are consumed pairwise; a trailing odd argument is dropped.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil {
		return nil
	}
	child := &Logger{out: l.out, level: l.level}
	child.fields = append(append([]field(nil), l.fields...), toFields(kv)...)
	return child
}

// Enabled reports whether lines at the given level would be written.
func (l *Logger) Enabled(level Level) bool {
	return l != nil && level >= l.level
}

func toFields(kv []any) []field {
	out := make([]field, 0, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		out = append(out, field{key: fmt.Sprint(kv[i]), val: fmt.Sprint(kv[i+1])})
	}
	return out
}

// quoteIfNeeded quotes values containing spaces, quotes, or '=' so lines
// stay machine-splittable on spaces.
func quoteIfNeeded(s string) string {
	if strings.ContainsAny(s, " \"=\t\n") || s == "" {
		return fmt.Sprintf("%q", s)
	}
	return s
}

func (l *Logger) log(level Level, msg string, kv []any) {
	keep := l != nil && l.out.ring != nil && level >= LevelInfo
	write := l.Enabled(level)
	if !keep && !write {
		return
	}
	now := time.Now()
	pairs := toFields(kv)
	var line string
	if write {
		var b strings.Builder
		b.WriteString(now.UTC().Format("2006-01-02T15:04:05.000Z"))
		b.WriteString(" level=")
		b.WriteString(level.String())
		b.WriteString(" msg=")
		b.WriteString(quoteIfNeeded(msg))
		for _, fs := range [][]field{l.fields, pairs} {
			for _, f := range fs {
				b.WriteByte(' ')
				b.WriteString(f.key)
				b.WriteByte('=')
				b.WriteString(quoteIfNeeded(f.val))
			}
		}
		b.WriteByte('\n')
		line = b.String()
	}
	o := l.out
	o.mu.Lock()
	if keep {
		o.seq++
		o.ring[(o.head+o.n)%len(o.ring)] = kept{o.seq, now, level, msg, l.fields, pairs}
		if o.n < len(o.ring) {
			o.n++
		} else {
			o.head = (o.head + 1) % len(o.ring)
		}
	}
	if write {
		io.WriteString(o.w, line)
	}
	o.mu.Unlock()
}

// Events returns the kept lines, oldest first; nil for a logger that keeps
// nothing.
func (l *Logger) Events() []Event {
	if l == nil || l.out.ring == nil {
		return nil
	}
	o := l.out
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]Event, o.n)
	for i := range out {
		k := &o.ring[(o.head+i)%len(o.ring)]
		fields := make(map[string]string, len(k.with)+len(k.kv)+1)
		for _, f := range k.with {
			fields[f.key] = f.val
		}
		for _, f := range k.kv {
			fields[f.key] = f.val
		}
		fields["level"] = k.level.String()
		out[i] = Event{Seq: k.seq, Time: k.at, Type: k.msg, Fields: fields}
	}
	return out
}

// Debug logs at debug level; kv are key=value pairs.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }
