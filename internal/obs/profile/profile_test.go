package profile

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// syntheticClock advances a fixed step per reading, keeping window math
// deterministic regardless of real capture latency.
type syntheticClock struct {
	t    time.Time
	step time.Duration
}

func (c *syntheticClock) now() time.Time {
	c.t = c.t.Add(c.step)
	return c.t
}

func newTestProfiler(o *obs.Obs) (*Profiler, *syntheticClock) {
	clk := &syntheticClock{t: time.Unix(1_700_000_000, 0), step: 5 * time.Second}
	p := New(Options{
		Interval:    10 * time.Second,
		CPUDuration: 5 * time.Millisecond,
		Recent:      4,
		History:     6,
		TopN:        10,
		Obs:         o,
		Now:         clk.now,
	})
	return p, clk
}

// publishAllocations makes what the caller just allocated visible to the
// next heap capture. The runtime samples one allocation per MemProfileRate
// bytes and publishes a sample only once two collection cycles have
// completed after it, so a window's 1.2 MB against the default 512 KiB rate
// is a couple of samples that may or may not have surfaced by the capture.
func publishAllocations() {
	runtime.GC()
	runtime.GC()
}

func TestCaptureWindowsAndRings(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 4096 // every 4 KiB chunk below is sampled
	o := obs.Nop()
	p, _ := newTestProfiler(o)
	for i := 0; i < 12; i++ {
		sink := chewMemory(300)
		publishAllocations()
		if _, err := p.CaptureOnce(); err != nil {
			t.Fatalf("capture %d: %v", i, err)
		}
		_ = sink
	}
	wins := p.Windows()
	// 12 captures, hot tier 4, cold tier 6 → oldest 2 evicted entirely.
	if len(wins) != 10 {
		t.Fatalf("retained %d windows, want 10", len(wins))
	}
	for i := 1; i < len(wins); i++ {
		if wins[i].Window.ID <= wins[i-1].Window.ID {
			t.Fatalf("window ids not increasing: %d then %d", wins[i-1].Window.ID, wins[i].Window.ID)
		}
	}
	sum, ok := p.ProfileSummary()
	if !ok {
		t.Fatal("ProfileSummary not ready after 12 captures")
	}
	if sum.AllocBytesPerSec <= 0 {
		t.Fatalf("AllocBytesPerSec = %v, want > 0 (test allocates every window)", sum.AllocBytesPerSec)
	}
	if len(sum.TopAlloc) == 0 {
		t.Fatal("TopAlloc empty despite per-window allocations")
	}
	if got := o.Metrics.Counter("obs.profile.captures_total").Value(); got != 12 {
		t.Fatalf("captures_total = %d, want 12", got)
	}
	// Raw bytes must exist for hot-tier windows and be gzipped pprof.
	id, ok := p.LatestID()
	if !ok {
		t.Fatal("no latest window")
	}
	raw, ok := p.Raw(id, KindHeap)
	if !ok || len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatalf("hot-tier heap capture missing or not gzip (ok=%v len=%d)", ok, len(raw))
	}
	// Evicted windows keep summaries but lose raw bytes.
	if _, ok := p.Window(0); ok {
		t.Fatal("window 0 still in hot tier after 12 captures with Recent=4")
	}
}

func TestProfileSummaryNotReadyBeforeBaseline(t *testing.T) {
	p, _ := newTestProfiler(obs.Nop())
	if _, ok := p.ProfileSummary(); ok {
		t.Fatal("summary ready before any capture")
	}
	if _, err := p.CaptureOnce(); err != nil {
		t.Fatalf("baseline capture: %v", err)
	}
	if _, ok := p.ProfileSummary(); ok {
		t.Fatal("summary ready after baseline-only capture")
	}
	if _, err := p.CaptureOnce(); err != nil {
		t.Fatalf("capture: %v", err)
	}
	if _, ok := p.ProfileSummary(); !ok {
		t.Fatal("summary not ready after first full window")
	}
}

func TestAllocAttributionNamesOwner(t *testing.T) {
	p, _ := newTestProfiler(obs.Nop())
	if _, err := p.CaptureOnce(); err != nil { // baseline
		t.Fatalf("baseline: %v", err)
	}
	sink := chewMemory(2000) // ~8 MB inside the window
	if _, err := p.CaptureOnce(); err != nil {
		t.Fatalf("capture: %v", err)
	}
	_ = sink
	table := p.Top(KindHeap, 10)
	for _, f := range table {
		if strings.Contains(f.Func, "chewMemory") && f.Flat > 0 {
			return
		}
	}
	t.Fatalf("chewMemory not in windowed alloc top-10: %+v", table)
}

func TestDiffWindowsSeesGrowth(t *testing.T) {
	p, _ := newTestProfiler(obs.Nop())
	if _, err := p.CaptureOnce(); err != nil { // baseline
		t.Fatalf("baseline: %v", err)
	}
	if _, err := p.CaptureOnce(); err != nil { // quiet window
		t.Fatalf("quiet: %v", err)
	}
	quietID, _ := p.LatestID()
	sink := chewMemory(2000)
	if _, err := p.CaptureOnce(); err != nil { // busy window
		t.Fatalf("busy: %v", err)
	}
	_ = sink
	busyID, _ := p.LatestID()
	diff, ok := p.DiffWindows(quietID, busyID, KindHeap)
	if !ok {
		t.Fatal("DiffWindows: windows missing from hot tier")
	}
	if len(diff) == 0 {
		t.Fatal("empty diff despite an allocation burst")
	}
	if diff[0].Delta <= 0 {
		t.Fatalf("top diff frame delta = %d, want > 0", diff[0].Delta)
	}
	for _, f := range diff {
		if strings.Contains(f.Func, "chewMemory") && f.Delta > 0 {
			return
		}
	}
	t.Fatalf("chewMemory not in growth diff: %+v", TopN(diff, 8))
}

func TestSeriesEmitted(t *testing.T) {
	var got []string
	o := obs.Nop()
	o.Series = seriesFunc(func(name string, _ time.Time, _ float64) { got = append(got, name) })
	p, _ := newTestProfiler(o)
	p.CaptureOnce()
	p.CaptureOnce()
	want := map[string]bool{
		"obs.profile.alloc.bytes_per_sec":    false,
		"obs.profile.cpu.busy_frac":          false,
		"obs.profile.alloc.regression_ratio": false,
		"obs.profile.cpu.regression_ratio":   false,
	}
	for _, name := range got {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("series %s never observed (got %v)", name, got)
		}
	}
}

type seriesFunc func(string, time.Time, float64)

func (f seriesFunc) Observe(name string, at time.Time, v float64) { f(name, at, v) }

func TestStartStop(t *testing.T) {
	p := New(Options{Interval: 10 * time.Millisecond, CPUDuration: -1, Obs: obs.Nop()})
	stop := p.Start()
	deadline := time.After(2 * time.Second)
	for {
		if _, ok := p.LatestID(); ok {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no capture within 2s of Start")
		case <-time.After(5 * time.Millisecond):
		}
	}
	stop()
	stop() // idempotent
}

func TestNopProfilerViaObs(t *testing.T) {
	var o *obs.Obs
	if _, ok := o.Profiler().ProfileSummary(); ok {
		t.Fatal("nil Obs profiler reported a summary")
	}
	o2 := obs.Nop()
	if _, ok := o2.Profiler().ProfileSummary(); ok {
		t.Fatal("unattached profiler reported a summary")
	}
	p, _ := newTestProfiler(o2)
	o2.Profile = p
	if o2.Profiler() != obs.ContinuousProfiler(p) {
		t.Fatal("attached profiler not returned")
	}
}
