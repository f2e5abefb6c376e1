// Package obs is the observability core of the Instant GridFTP
// reproduction: a log/slog logger whose handler keeps the lifecycle record
// /debug/events serves, a concurrency-safe metrics registry (counters,
// gauges, histograms), and lightweight spans for tracing a transfer across
// its phases (MyProxy activation, control channel, data channel,
// hosted-service retry).
//
// The package is stdlib-only by design. Every other layer — the GridFTP
// protocol engine, the hosted transfer service, the network simulator,
// GCMU packaging, MyProxy — accepts an *Obs and reports into it; the
// paper's hosted service (§VI) monitors transfers via markers, and this
// layer is the measurement substrate those markers (and all perf work)
// feed into.
package obs

import (
	"io"
	"log/slog"
	"os"
	"time"
)

// Obs bundles the observability facilities a component needs. A nil *Obs
// is valid everywhere: all methods degrade to no-ops, so call sites never
// have to guard.
type Obs struct {
	Log     *slog.Logger
	Metrics *Registry
	Trace   *Tracer
}

// New returns a fully wired Obs: a logger writing records at or above
// level to w in slog's text format and keeping those at Info and above, a
// fresh metrics registry (carrying the process.* identity gauges) and a
// fresh tracer.
func New(w io.Writer, level slog.Level) *Obs {
	o := &Obs{
		Log:     slog.New(&handler{ring: &ring{}, out: slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})}),
		Metrics: NewRegistry(),
		Trace:   NewTracer(),
	}
	registerProcessMetrics(o.Metrics)
	registerRuntimeMetrics(o.Metrics)
	return o
}

// Nop returns an Obs that records metrics, spans, and the logger's kept
// records but writes no log output — the default for tests that only
// assert on telemetry.
func Nop() *Obs { return New(io.Discard, silent) }

// silent is a level no record reaches.
const silent = slog.LevelError + 1

// processStart anchors the process.* metrics: one value per process, set
// at init so every registry that registers the process metrics reports
// the same start time.
var processStart = time.Now()

// registerProcessMetrics adds the process identity gauges every exported
// registry should carry: the Unix start time (the Prometheus
// process_start_time_seconds convention) and a live uptime computed at
// snapshot time. Both render in the text dump and in the Prometheus
// exposition because each goes through Registry.Snapshot.
func registerProcessMetrics(r *Registry) {
	r.GaugeFunc("process.start_time_seconds", func() int64 { return processStart.Unix() })
	r.GaugeFunc("process.uptime_seconds", func() int64 {
		return int64(time.Since(processStart).Seconds())
	})
}

// FromEnv builds an Obs honoring the OBS_LOG_LEVEL environment variable
// (debug|info|warn|error in either case, as slog.Level parses them;
// anything else silences logging). Logs go to stderr.
func FromEnv() *Obs {
	var level slog.Level
	if level.UnmarshalText([]byte(os.Getenv("OBS_LOG_LEVEL"))) != nil {
		return Nop()
	}
	return New(os.Stderr, level)
}

// Logger returns the bundle's logger, or a silent one that keeps nothing
// when o is nil or has no logger.
func (o *Obs) Logger() *slog.Logger {
	if o == nil || o.Log == nil {
		return nopLogger
	}
	return o.Log
}

// Registry returns the bundle's metrics registry, or a discard registry
// when o is nil or has no registry. The discard registry is real (it
// accumulates), just unreachable — which keeps call sites branch-free.
func (o *Obs) Registry() *Registry {
	if o == nil || o.Metrics == nil {
		return discardRegistry
	}
	return o.Metrics
}

// Tracer returns the bundle's tracer, or a discard tracer when o is nil.
func (o *Obs) Tracer() *Tracer {
	if o == nil || o.Trace == nil {
		return discardTracer
	}
	return o.Trace
}

var (
	nopLogger       = slog.New(&handler{out: slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: silent})})
	discardRegistry = NewRegistry()
	discardTracer   = NewTracer()
)
