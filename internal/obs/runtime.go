package obs

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// This file adds the Go runtime's own health to every default registry:
// GC pause latency, live heap size and object count, and cumulative
// process CPU time. A pprof capture (/debug/pprof/) attributes allocation
// and CPU to functions; these series are the runtime-level context to
// correlate it against — an alloc-rate regression with flat
// go.heap.alloc_bytes is churn, one with a climbing heap is a leak.

// DefaultGCPauseBuckets suit Go stop-the-world pauses, which run tens of
// microseconds to low milliseconds (values observed in seconds).
var DefaultGCPauseBuckets = []float64{
	50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 100e-3,
}

// runtimeRefreshInterval throttles runtime.ReadMemStats (a brief
// stop-the-world) so frequent snapshots — the 1s tsdb sampler plus
// scrapes — share one read per interval.
const runtimeRefreshInterval = 500 * time.Millisecond

// runtimeSampler lazily refreshes runtime state when any of the
// registered runtime metrics is read at snapshot time.
type runtimeSampler struct {
	mu        sync.Mutex
	last      time.Time
	stats     runtime.MemStats
	baselined bool
	lastNumGC uint32

	pauses *Histogram
	cpu    *Counter
	// cpuLast/cpuCarry turn the float CPU clock into a monotone
	// whole-seconds counter: the fractional remainder carries between
	// refreshes so the cumulative value tracks real CPU time with <1s
	// error (the registry's counters are int64).
	cpuLast  float64
	cpuCarry float64
}

// registerRuntimeMetrics wires the runtime series into r:
//
//	go.gc.pause_seconds       histogram of stop-the-world pause durations
//	go.heap.alloc_bytes       gauge, live heap bytes (MemStats.HeapAlloc)
//	go.heap.objects           gauge, live heap objects
//	go.goroutines             gauge, current goroutine count
//	process.cpu_seconds_total counter, cumulative user+system CPU seconds
//	                          (whole-second resolution, remainder carried)
//
// Pauses and CPU count from registry creation, matching every other
// metric's "since this process's registry existed" semantics.
func registerRuntimeMetrics(r *Registry) {
	s := &runtimeSampler{
		pauses:  r.Histogram("go.gc.pause_seconds", DefaultGCPauseBuckets),
		cpu:     r.Counter("process.cpu_seconds_total"),
		cpuLast: processCPUSeconds(),
	}
	r.GaugeFunc("go.heap.alloc_bytes", func() int64 {
		ms := s.snapshot()
		return int64(ms.HeapAlloc)
	})
	r.GaugeFunc("go.heap.objects", func() int64 {
		ms := s.snapshot()
		return int64(ms.HeapObjects)
	})
	r.GaugeFunc("go.goroutines", func() int64 {
		s.snapshot() // keep pause/CPU series fresh even if heap gauges are filtered out
		return int64(runtime.NumGoroutine())
	})
}

// snapshot returns the current MemStats, re-reading the runtime at most
// once per refresh interval and folding new GC pauses and CPU time into
// their metrics as a side effect.
func (s *runtimeSampler) snapshot() runtime.MemStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if !s.last.IsZero() && now.Sub(s.last) < runtimeRefreshInterval {
		return s.stats
	}
	s.last = now
	runtime.ReadMemStats(&s.stats)
	s.observePauses()
	s.updateCPU()
	return s.stats
}

// observePauses feeds every GC pause since the previous refresh into the
// histogram. The runtime keeps the most recent 256 pauses; a refresh gap
// longer than 256 GCs loses the overflow (the histogram is a sample,
// not an audit log).
func (s *runtimeSampler) observePauses() {
	n := s.stats.NumGC
	if !s.baselined {
		s.baselined = true
		s.lastNumGC = n
		return
	}
	if n == s.lastNumGC {
		return
	}
	first := s.lastNumGC
	if n-first > uint32(len(s.stats.PauseNs)) {
		first = n - uint32(len(s.stats.PauseNs))
	}
	for i := first; i != n; i++ {
		s.pauses.Observe(float64(s.stats.PauseNs[i%uint32(len(s.stats.PauseNs))]) / 1e9)
	}
	s.lastNumGC = n
}

// updateCPU advances the whole-seconds CPU counter.
func (s *runtimeSampler) updateCPU() {
	cur := processCPUSeconds()
	if cur <= 0 {
		return
	}
	delta := cur - s.cpuLast
	s.cpuLast = cur
	if delta <= 0 {
		return
	}
	s.cpuCarry += delta
	if whole := math.Floor(s.cpuCarry); whole >= 1 {
		s.cpu.Add(int64(whole))
		s.cpuCarry -= whole
	}
}
