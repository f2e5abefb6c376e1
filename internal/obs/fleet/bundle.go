package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/collector"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// This file is the alert-triggered diagnostics path: when a fleet alert
// transitions to firing, the evidence an operator needs — what was the
// process doing (CPU/heap profile), what was the fleet doing (span dump,
// event tail), and what led up to it (the fleet timeseries window) — is
// captured immediately, while the incident is still live, into a bounded
// on-disk ring served by GET /fleet/bundles. Waiting for a human to run
// pprof by hand loses exactly the minutes that matter.

// BundleOptions configures diagnostic bundle capture.
type BundleOptions struct {
	// Dir is the directory bundles are written under; empty disables
	// capture.
	Dir string
	// ProfileDuration is how long the CPU profile runs (default 250ms —
	// long enough to catch a hot loop, short enough not to delay the
	// rest of the capture).
	ProfileDuration time.Duration
}

const (
	// bundleLimit bounds how many bundles are kept on disk; the oldest are
	// pruned.
	bundleLimit = 8
	// bundleWindow is how much fleet history a bundle includes.
	bundleWindow = 5 * time.Minute
)

// BundleMeta is the manifest written into every bundle as meta.json.
type BundleMeta struct {
	Name       string    `json:"name"`
	Rule       string    `json:"rule"`
	Series     string    `json:"series"`
	Severity   string    `json:"severity,omitempty"`
	Value      float64   `json:"value"`
	AlertAt    time.Time `json:"alert_at"`
	CapturedAt time.Time `json:"captured_at"`
	// ExemplarTraceIDs are the trace ids the fleet aggregate's histogram
	// exemplars carried at capture time — each names a representative
	// slow trace in the /debug/spans export of the instance that made it.
	ExemplarTraceIDs []string   `json:"exemplar_trace_ids,omitempty"`
	Instances        []Instance `json:"instances,omitempty"`
	// Profile is the head's continuous-profile window at capture time —
	// the top-regressed frames inside it are the attribution for
	// alloc/CPU regression alerts. Absent when the head runs no
	// continuous profiler or it hasn't completed a window yet.
	Profile *obs.ProfileSummary `json:"profile,omitempty"`
	Files   []string            `json:"files,omitempty"`
}

// Bundler captures and serves diagnostic bundles.
type Bundler struct {
	opts BundleOptions
	svc  *Service

	mu       sync.Mutex
	seq      int
	inflight bool
	skipped  int
}

func newBundler(opts BundleOptions, svc *Service) *Bundler {
	if opts.ProfileDuration <= 0 {
		opts.ProfileDuration = 250 * time.Millisecond
	}
	return &Bundler{opts: opts, svc: svc}
}

// trigger starts an asynchronous capture for the transition. At most one
// capture runs at a time; transitions arriving mid-capture are dropped
// (counted), not queued — a flapping rule must not turn the disk ring
// into a profile treadmill.
func (b *Bundler) trigger(tr tsdb.Transition) {
	b.mu.Lock()
	if b.inflight {
		b.skipped++
		b.mu.Unlock()
		return
	}
	b.inflight = true
	b.seq++
	seq := b.seq
	b.mu.Unlock()
	go func() {
		defer func() {
			b.mu.Lock()
			b.inflight = false
			b.mu.Unlock()
		}()
		if _, err := b.Capture(tr, seq); err != nil {
			b.svc.o.Logger().Warn("fleet: bundle capture failed", "rule", tr.Rule, "err", err.Error())
		}
	}()
}

// Capture synchronously writes one diagnostic bundle for the transition
// and returns its directory name. Exported for tests and for operators
// wiring manual capture; production capture goes through the engine tap.
func (b *Bundler) Capture(tr tsdb.Transition, seq int) (string, error) {
	now := b.svc.opts.Now()
	name := fmt.Sprintf("bundle-%s-%03d-%s",
		now.UTC().Format("20060102T150405Z"), seq, sanitizeBundleName(tr.Rule))
	dir := filepath.Join(b.opts.Dir, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	meta := BundleMeta{
		Name: name, Rule: tr.Rule, Series: tr.Series, Severity: tr.Severity,
		Value: tr.Value, AlertAt: tr.At, CapturedAt: now,
		ExemplarTraceIDs: b.svc.ExemplarTraceIDs(),
		Instances:        b.svc.Instances(),
	}
	if sum, ok := b.svc.o.Profiler().ProfileSummary(); ok {
		meta.Profile = &sum
	}

	writeJSONFile := func(file string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return
		}
		if os.WriteFile(filepath.Join(dir, file), data, 0o644) == nil {
			meta.Files = append(meta.Files, file)
		}
	}

	// CPU profile: best-effort — another profiler (a concurrent capture,
	// an operator's pprof session) may already own the CPU profiler.
	if f, err := os.Create(filepath.Join(dir, "cpu.pprof")); err == nil {
		if err := pprof.StartCPUProfile(f); err == nil {
			time.Sleep(b.opts.ProfileDuration)
			pprof.StopCPUProfile()
			meta.Files = append(meta.Files, "cpu.pprof")
			f.Close()
		} else {
			f.Close()
			os.Remove(f.Name())
		}
	}
	if f, err := os.Create(filepath.Join(dir, "heap.pprof")); err == nil {
		if p := pprof.Lookup("heap"); p != nil && p.WriteTo(f, 0) == nil {
			meta.Files = append(meta.Files, "heap.pprof")
		}
		f.Close()
	}

	if meta.Profile != nil {
		// The window also lands as its own artifact: the fleet-wide merged
		// rankings at capture time give an alert's profile context even
		// when the regression originated on a pushed instance, not the head.
		writeJSONFile("profile.json", map[string]any{
			"window": meta.Profile,
			"fleet":  b.svc.Profile(0),
		})
	}
	writeJSONFile("spans.json", b.captureSpans())
	writeJSONFile("events.json", b.svc.o.EventLog().Last(200))
	writeJSONFile("timeseries.json", b.svc.rec.DumpSeries(
		[]string{"fleet."}, now.Add(-bundleWindow), 0))

	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(dir, "meta.json"), data, 0o644); err != nil {
		return "", err
	}
	b.svc.o.EventLog().Append("fleet.bundle.captured",
		"bundle", name, "rule", tr.Rule, "files", fmt.Sprintf("%d", len(meta.Files)+1))
	b.prune()
	return name, nil
}

// captureSpans dumps the head process's own completed spans by trace id.
func (b *Bundler) captureSpans() map[string][]collector.Span {
	out := make(map[string][]collector.Span)
	for _, s := range collector.FromInfos("fleet-head", b.svc.o.Tracer().Spans()) {
		out[s.TraceID] = append(out[s.TraceID], s)
	}
	return out
}

// prune removes the oldest bundles beyond bundleLimit. Bundle
// directory names sort chronologically (UTC timestamp prefix).
func (b *Bundler) prune() {
	names := b.bundleNames()
	for len(names) > bundleLimit {
		os.RemoveAll(filepath.Join(b.opts.Dir, names[0]))
		names = names[1:]
	}
}

func (b *Bundler) bundleNames() []string {
	entries, err := os.ReadDir(b.opts.Dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "bundle-") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

// Bundles lists the bundles on disk, oldest first, from their manifests.
// Bundles whose meta.json is missing or unreadable are skipped.
func (b *Bundler) Bundles() []BundleMeta {
	if b == nil {
		return nil
	}
	var out []BundleMeta
	for _, name := range b.bundleNames() {
		data, err := os.ReadFile(filepath.Join(b.opts.Dir, name, "meta.json"))
		if err != nil {
			continue
		}
		var m BundleMeta
		if json.Unmarshal(data, &m) != nil {
			continue
		}
		m.Name = name
		out = append(out, m)
	}
	return out
}

// Skipped reports how many firing transitions were dropped because a
// capture was already in flight.
func (b *Bundler) Skipped() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.skipped
}

// sanitizeBundleName keeps rule names filesystem- and URL-safe.
func sanitizeBundleName(s string) string {
	var out strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			out.WriteRune(r)
		default:
			out.WriteByte('_')
		}
	}
	if out.Len() == 0 {
		return "alert"
	}
	return out.String()
}
