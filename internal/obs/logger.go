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
// every line of one session is greppable by a stable key. Loggers sharing
// an output serialize writes through a common mutex.
type Logger struct {
	out    *lockedWriter
	level  Level
	fields []field // permanent context, rendered after the message
}

type field struct {
	key string
	val string
}

type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLogger creates a logger writing lines at or above level to w.
func NewLogger(w io.Writer, level Level) *Logger {
	return &Logger{out: &lockedWriter{w: w}, level: level}
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
	if !l.Enabled(level) {
		return
	}
	var b strings.Builder
	b.WriteString(time.Now().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(level.String())
	b.WriteString(" msg=")
	b.WriteString(quoteIfNeeded(msg))
	for _, f := range l.fields {
		b.WriteByte(' ')
		b.WriteString(f.key)
		b.WriteByte('=')
		b.WriteString(quoteIfNeeded(f.val))
	}
	for _, f := range toFields(kv) {
		b.WriteByte(' ')
		b.WriteString(f.key)
		b.WriteByte('=')
		b.WriteString(quoteIfNeeded(f.val))
	}
	b.WriteByte('\n')
	l.out.mu.Lock()
	io.WriteString(l.out.w, b.String())
	l.out.mu.Unlock()
}

// Debug logs at debug level; kv are key=value pairs.
func (l *Logger) Debug(msg string, kv ...any) { l.log(LevelDebug, msg, kv) }

// Info logs at info level.
func (l *Logger) Info(msg string, kv ...any) { l.log(LevelInfo, msg, kv) }

// Warn logs at warn level.
func (l *Logger) Warn(msg string, kv ...any) { l.log(LevelWarn, msg, kv) }

// Error logs at error level.
func (l *Logger) Error(msg string, kv ...any) { l.log(LevelError, msg, kv) }
