// Package obs is the observability core of the Instant GridFTP
// reproduction: a leveled structured logger, a concurrency-safe metrics
// registry (counters, gauges, histograms), and lightweight spans for
// tracing a transfer across its phases (MyProxy activation, control
// channel, data channel, hosted-service retry).
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
	"os"
	"time"
)

// Obs bundles the observability facilities a component needs. A nil *Obs
// is valid everywhere: all methods degrade to no-ops, so call sites never
// have to guard.
type Obs struct {
	Log     *Logger
	Metrics *Registry
	Trace   *Tracer
}

// New returns a fully wired Obs: logger writing to w at the given level,
// a fresh metrics registry (carrying the process.* identity gauges) and a
// fresh tracer.
func New(w io.Writer, level Level) *Obs {
	o := &Obs{
		Log:     NewLogger(w, level),
		Metrics: NewRegistry(),
		Trace:   NewTracer(),
	}
	registerProcessMetrics(o.Metrics)
	registerRuntimeMetrics(o.Metrics)
	return o
}

// Nop returns an Obs that records metrics, spans, and the logger's kept
// lines but writes no log output — the default for tests that only assert
// on telemetry.
func Nop() *Obs { return New(io.Discard, LevelError) }

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
// (debug|info|warn|error; anything else silences logging). Logs go to
// stderr.
func FromEnv() *Obs {
	lvl, ok := ParseLevel(os.Getenv("OBS_LOG_LEVEL"))
	if !ok {
		return Nop()
	}
	return New(os.Stderr, lvl)
}

// Logger returns the bundle's logger, or a silent one that keeps nothing
// when o is nil or has no logger.
func (o *Obs) Logger() *Logger {
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
	nopLogger       = &Logger{out: &output{w: io.Discard}, level: LevelError + 1}
	discardRegistry = NewRegistry()
	discardTracer   = NewTracer()
)
