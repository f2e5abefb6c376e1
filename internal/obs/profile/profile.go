package profile

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// Profile kinds captured every window. CPU comes from a short
// StartCPUProfile sample; the rest are the runtime's named profiles.
const (
	KindCPU       = "cpu"
	KindHeap      = "heap" // the "allocs" lookup: alloc_space/objects + inuse_space/objects
	KindMutex     = "mutex"
	KindBlock     = "block"
	KindGoroutine = "goroutine"
)

// Kinds lists every capture kind in display order.
var Kinds = []string{KindCPU, KindHeap, KindMutex, KindBlock, KindGoroutine}

// cumulativeValue names the since-process-start sample type per kind
// that must be windowed by subtracting consecutive captures. CPU,
// inuse_space, and goroutine captures are per-window (or point-in-time)
// already.
var cumulativeValue = map[string]string{
	KindHeap:  "alloc_space",
	KindMutex: "delay",
	KindBlock: "delay",
}

// Options configure a Profiler. The zero value is usable: 10s windows,
// 250ms CPU sample per window, ~5min of raw captures, ~2h of summaries
// (mirroring the tsdb two-tier retention), top-10 tables.
type Options struct {
	// Interval is the capture cadence (and window length). Default 10s.
	Interval time.Duration
	// CPUDuration is how long each window's CPU profile samples for.
	// Default 250ms — 2.5% of the default window, at the runtime's 1%-ish
	// sampling overhead. Zero keeps the default; negative disables CPU
	// capture entirely.
	CPUDuration time.Duration
	// Recent is how many raw windows (gzipped pprof bytes + full tables)
	// the hot tier retains. Default 30 (~5min at the default interval).
	Recent int
	// History is how many downsampled summaries (top-N tables only, no
	// raw bytes) the cold tier retains. Default 720 (~2h).
	History int
	// TopN bounds every exported table. Default 10.
	TopN int
	// Obs receives obs.profile.* registry metrics and time series; its
	// event log gets a capture-failure event. May be nil.
	Obs *obs.Obs
	// Now overrides the clock for tests.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.Interval <= 0 {
		o.Interval = 10 * time.Second
	}
	if o.CPUDuration == 0 {
		o.CPUDuration = 250 * time.Millisecond
	}
	if o.Recent <= 0 {
		o.Recent = 30
	}
	if o.History <= 0 {
		o.History = 720
	}
	if o.TopN <= 0 {
		o.TopN = 10
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Window is one completed capture window in the hot tier: raw pprof
// bytes per kind plus the windowed per-function tables derived from
// them.
type Window struct {
	obs.ProfileWindow
	// Raw holds the gzipped pprof capture per kind, as written by
	// runtime/pprof — downloadable from the admin plane and included in
	// diagnostic bundles.
	Raw map[string][]byte
	// Tables holds the per-window flat/cum function tables per kind
	// (cumulative kinds already windowed against the previous capture).
	Tables map[string][]obs.ProfileFrame
	// Summary is the compact view that outlives the hot tier.
	Summary obs.ProfileSummary
}

// Profiler continuously captures the runtime's profiles into a bounded
// two-tier ring and derives rates, top-N tables, and regression ratios
// from them. It implements obs.ContinuousProfiler.
type Profiler struct {
	opts Options

	captureMu sync.Mutex // serializes CaptureOnce (CPU capture is process-global)

	mu      sync.Mutex
	nextID  int
	recent  []*Window            // hot tier, oldest first
	history []obs.ProfileSummary // cold tier, oldest first
	prevCum map[string][]obs.ProfileFrame
	prevWin map[string][]obs.ProfileFrame // previous window's windowed tables
	last    time.Time                     // end of previous window
	lastMem runtime.MemStats

	captures *obs.Counter
	failures *obs.Counter
	capSec   *obs.Histogram
}

// New builds a Profiler. Call Start for the background loop, or drive
// CaptureOnce directly (tests, benchmarks).
func New(opts Options) *Profiler {
	opts = opts.withDefaults()
	p := &Profiler{
		opts:    opts,
		prevCum: make(map[string][]obs.ProfileFrame),
		prevWin: make(map[string][]obs.ProfileFrame),
	}
	reg := opts.Obs.Registry()
	p.captures = reg.Counter("obs.profile.captures_total")
	p.failures = reg.Counter("obs.profile.capture_failures_total")
	p.capSec = reg.Histogram("obs.profile.capture_seconds", []float64{
		1e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5,
	})
	reg.GaugeFunc("obs.profile.windows", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(len(p.recent) + len(p.history))
	})
	return p
}

// Interval returns the configured capture cadence.
func (p *Profiler) Interval() time.Duration { return p.opts.Interval }

// Start launches the capture loop; the returned stop halts it
// (obs.Every's contract), waiting out a capture in progress.
func (p *Profiler) Start() (stop func()) {
	return obs.Every(p.opts.Interval, func(time.Time) {
		if _, err := p.CaptureOnce(); err != nil {
			p.opts.Obs.Logger().Warn("profile capture failed", "err", err)
		}
	})
}

// CaptureOnce performs one full capture window synchronously: CPU
// sample (blocking for CPUDuration), the named runtime profiles, parse,
// windowing, summary, ring commit, and telemetry. Returns the window's
// summary.
func (p *Profiler) CaptureOnce() (obs.ProfileSummary, error) {
	p.captureMu.Lock()
	defer p.captureMu.Unlock()

	wallStart := time.Now()
	start := p.opts.Now()
	raw := make(map[string][]byte, len(Kinds))

	// CPU: a short in-window sample. StartCPUProfile is process-global
	// and fails if something else (a bench harness, /debug/pprof/profile)
	// is already sampling — that window simply lacks a CPU table.
	if p.opts.CPUDuration > 0 {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err == nil {
			time.Sleep(p.opts.CPUDuration)
			pprof.StopCPUProfile()
			raw[KindCPU] = buf.Bytes()
		}
	}
	for kind, name := range map[string]string{
		KindHeap:      "allocs",
		KindMutex:     "mutex",
		KindBlock:     "block",
		KindGoroutine: "goroutine",
	} {
		prof := pprof.Lookup(name)
		if prof == nil {
			continue
		}
		var buf bytes.Buffer
		if err := prof.WriteTo(&buf, 0); err != nil {
			p.failures.Inc()
			continue
		}
		raw[kind] = buf.Bytes()
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	end := p.opts.Now()

	sum, err := p.analyze(start, end, raw, mem)
	p.capSec.Observe(time.Since(wallStart).Seconds())
	if err != nil {
		// A kind that failed to parse is dropped from the window; the
		// window itself still committed with whatever parsed.
		p.failures.Inc()
	}
	p.captures.Inc()
	p.emit(sum, end)
	return sum, err
}

// analyze parses the raw captures, windows the cumulative kinds,
// derives the summary, and commits the window to the rings.
func (p *Profiler) analyze(start, end time.Time, raw map[string][]byte, mem runtime.MemStats) (obs.ProfileSummary, error) {
	tables := make(map[string][]obs.ProfileFrame, len(raw))
	cums := make(map[string][]obs.ProfileFrame)
	var firstErr error
	for kind, data := range raw {
		prof, err := ParsePprof(data)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", kind, err)
			}
			continue
		}
		switch kind {
		case KindCPU:
			tables[kind] = FrameTable(prof, prof.ValueIndex("cpu"))
		case KindGoroutine:
			tables[kind] = FrameTable(prof, 0)
		default:
			cums[kind] = FrameTable(prof, prof.ValueIndex(cumulativeValue[kind]))
		}
		if kind == KindHeap {
			tables["heap_inuse"] = FrameTable(prof, prof.ValueIndex("inuse_space"))
		}
	}

	p.mu.Lock()
	defer p.mu.Unlock()

	first := p.last.IsZero()
	for kind, cum := range cums {
		tables[kind] = WindowDelta(cum, p.prevCum[kind])
		p.prevCum[kind] = cum
	}

	id := p.nextID
	p.nextID++
	sum := obs.ProfileSummary{
		Window: obs.ProfileWindow{ID: id, Start: start, End: end},
	}
	if first {
		// Cumulative kinds have no baseline yet: the "window" would span
		// the whole process lifetime. Record the capture as the baseline
		// but report nothing.
		sum.Window.Start = end
	}

	wall := end.Sub(p.last)
	if first || wall <= 0 {
		wall = end.Sub(start)
	}
	if !first && wall > 0 {
		sum.AllocBytesPerSec = float64(mem.TotalAlloc-p.lastMem.TotalAlloc) / wall.Seconds()
	}
	if cpuNanos := SumFlat(tables[KindCPU]); cpuNanos > 0 && p.opts.CPUDuration > 0 {
		sum.CPUBusyFrac = float64(cpuNanos) / float64(p.opts.CPUDuration.Nanoseconds())
	}
	sum.TopCPU = TopN(tables[KindCPU], p.opts.TopN)
	if !first {
		sum.TopAlloc = TopN(tables[KindHeap], p.opts.TopN)
		sum.TopRegressed = TopN(DiffTables(tables[KindHeap], p.prevWin[KindHeap], true), p.opts.TopN)
	}

	// Regression ratios: this window's rate over the previous window's.
	// The alert rules page when the ratio stays high across consecutive
	// windows — a step change, not a blip.
	if prev := p.prevSummaryLocked(); prev != nil {
		sum.AllocRegression = ratio(sum.AllocBytesPerSec, prev.AllocBytesPerSec)
		sum.CPURegression = ratio(sum.CPUBusyFrac, prev.CPUBusyFrac)
	}

	win := &Window{ProfileWindow: sum.Window, Raw: raw, Tables: tables, Summary: sum}
	p.recent = append(p.recent, win)
	if n := len(p.recent) - p.opts.Recent; n > 0 {
		// Demote evicted raw windows to the summary-only cold tier.
		for _, old := range p.recent[:n] {
			p.history = append(p.history, old.Summary)
		}
		p.recent = append(p.recent[:0], p.recent[n:]...)
	}
	if n := len(p.history) - p.opts.History; n > 0 {
		p.history = append(p.history[:0], p.history[n:]...)
	}

	for kind := range cumulativeValue {
		p.prevWin[kind] = tables[kind]
	}
	p.prevWin[KindCPU] = tables[KindCPU]
	p.last = end
	p.lastMem = mem

	return sum, firstErr
}

// prevSummaryLocked returns the newest committed summary, if any.
func (p *Profiler) prevSummaryLocked() *obs.ProfileSummary {
	if n := len(p.recent); n > 0 {
		return &p.recent[n-1].Summary
	}
	if n := len(p.history); n > 0 {
		return &p.history[n-1]
	}
	return nil
}

// ratio guards a rate comparison against a zero/tiny baseline: with no
// meaningful baseline there is no regression signal, so report 1.
func ratio(cur, prev float64) float64 {
	if prev <= 0 || cur < 0 {
		return 1
	}
	return cur / prev
}

// emit feeds the summary into the time-series sink (nil-safe).
func (p *Profiler) emit(sum obs.ProfileSummary, at time.Time) {
	ts := p.opts.Obs.TimeSeries()
	ts.Observe("obs.profile.alloc.bytes_per_sec", at, sum.AllocBytesPerSec)
	ts.Observe("obs.profile.cpu.busy_frac", at, sum.CPUBusyFrac)
	ts.Observe("obs.profile.alloc.regression_ratio", at, sum.AllocRegression)
	ts.Observe("obs.profile.cpu.regression_ratio", at, sum.CPURegression)
}

// ProfileSummary implements obs.ContinuousProfiler: the newest window's
// summary, ok=false until the first post-baseline window completes.
func (p *Profiler) ProfileSummary() (obs.ProfileSummary, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	prev := p.prevSummaryLocked()
	if prev == nil || prev.Window.ID == 0 {
		// Window 0 is the baseline capture; it carries no windowed data.
		return obs.ProfileSummary{}, false
	}
	return *prev, true
}

// Windows lists every retained window's summary, oldest first: the cold
// tier's summaries followed by the hot tier's.
func (p *Profiler) Windows() []obs.ProfileSummary {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]obs.ProfileSummary, 0, len(p.history)+len(p.recent))
	out = append(out, p.history...)
	for _, w := range p.recent {
		out = append(out, w.Summary)
	}
	return out
}

// Window returns the hot-tier window with the given id (summaries in
// the cold tier have no raw bytes or full tables left).
func (p *Profiler) Window(id int) (*Window, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.windowLocked(id)
}

func (p *Profiler) windowLocked(id int) (*Window, bool) {
	for _, w := range p.recent {
		if w.ID == id {
			return w, true
		}
	}
	return nil, false
}

// Raw returns the gzipped pprof capture for one kind of one hot-tier
// window, e.g. for download from the admin plane.
func (p *Profiler) Raw(id int, kind string) ([]byte, bool) {
	w, ok := p.Window(id)
	if !ok {
		return nil, false
	}
	data, ok := w.Raw[kind]
	return data, ok
}

// Top returns the newest window's top-n table for a kind ("cpu",
// "heap", "heap_inuse", "mutex", "block", "goroutine").
func (p *Profiler) Top(kind string, n int) []obs.ProfileFrame {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.recent) == 0 {
		return nil
	}
	return TopN(p.recent[len(p.recent)-1].Tables[kind], n)
}

// DiffWindows diffs one kind's table between two hot-tier windows
// (base, cur), sorted by growth. Returns false if either window has
// left the hot tier.
func (p *Profiler) DiffWindows(baseID, curID int, kind string) ([]obs.ProfileFrame, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	base, ok1 := p.windowLocked(baseID)
	cur, ok2 := p.windowLocked(curID)
	if !ok1 || !ok2 {
		return nil, false
	}
	return DiffTables(cur.Tables[kind], base.Tables[kind], false), true
}

// LatestID returns the newest hot-tier window id, ok=false before the
// first capture.
func (p *Profiler) LatestID() (int, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.recent) == 0 {
		return 0, false
	}
	return p.recent[len(p.recent)-1].ID, true
}

// KindsSorted returns the table kinds present in the newest window.
func (p *Profiler) KindsSorted() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.recent) == 0 {
		return nil
	}
	w := p.recent[len(p.recent)-1]
	out := make([]string, 0, len(w.Tables))
	for k := range w.Tables {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
