package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// opTimeout bounds one op; a healthy op takes about a second at most, so
// hitting it is a failure, not a slow sample.
const opTimeout = 30 * time.Second

var errOpTimeout = errors.New("op timed out")

// childConfig is one child process's job.
type childConfig struct {
	workload string
	mode     string // "measure" (untraced), "traced", "setup" (set-up only) or "probes"
	seed     int64
	seconds  float64
	outDir   string
	started  time.Time // when the parent spawned this child
	sz       sizes
	reps     int // probe repetitions
}

// childResult is what a child prints, as one JSON line, for its parent.
type childResult struct {
	Workload  string             `json:"workload"`
	Mode      string             `json:"mode"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"` // first few failures, verbatim
	Metrics   map[string]float64 `json:"metrics"`
}

// counters is one reading of everything that is snapshotted where the
// measured work starts and stops. Every entry only ever grows, so the work
// done in a window is after.minus(before), and windows add up.
type counters [nCounters]int64

const (
	cMallocs = iota
	cAllocBytes
	cGCCycles
	cGCPauseNs
	cConns
	cWireBytes
	cCommands
	cSessions
	nCounters
)

func readCounters(w *world) counters {
	var c counters
	for _, l := range w.links {
		st := w.nw.LinkStats(l[0], l[1])
		c[cConns] += st.Conns
		c[cWireBytes] += st.Bytes
	}
	for _, m := range w.obs.Registry().Snapshot() {
		switch m.Name {
		case "gridftp.server.command_seconds":
			c[cCommands] = m.Value
		case "gridftp.server.sessions_total":
			c[cSessions] = m.Value
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c[cMallocs], c[cAllocBytes] = int64(ms.Mallocs), int64(ms.TotalAlloc)
	c[cGCCycles], c[cGCPauseNs] = int64(ms.NumGC), int64(ms.PauseTotalNs)
	return c
}

func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func (c counters) plus(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// cpuTicks reads the machine-wide CPU accounting line of /proc/stat: ticks
// the hypervisor withheld from this VM ("steal") and ticks in total. Where
// there is no such file both are 0.
func cpuTicks() (steal, total float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// timedOp runs f under opTimeout. The op runs on its own goroutine only so
// that a hang can be abandoned; ops never overlap.
func timedOp(f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	t := time.NewTimer(opTimeout)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return errOpTimeout
	}
}

// phase is what the measured loop observed.
type phase struct {
	ops       []opSample
	attempted int
	failed    int
	errors    []string
	seconds   float64  // phase wall time
	opCPU     float64  // CPU seconds spent inside op clocks
	verify    float64  // seconds spent verifying, outside the clocks
	work      counters // what ops and their verification did; session renewals excluded
}

// runPhase is the closed loop: one goroutine, next op issued when the
// previous one has completed and verified, until the time is up.
func runPhase(r runner, rec *recorder, seconds float64) phase {
	var ph phase
	w := r.info()
	opened := readCounters(w)
	begin := time.Now()
	deadline := begin.Add(time.Duration(seconds * float64(time.Second)))
	for n := 1; time.Now().Before(deadline); n++ {
		ph.attempted++
		rec.setOp(n)
		cpu0 := cpuSeconds()
		start := time.Now()
		err := rec.call("op", func() error { return timedOp(func() error { return r.op(n) }) })
		elapsed := time.Since(start)
		ph.opCPU += cpuSeconds() - cpu0

		var verified int64
		vstart := time.Now()
		if err == nil {
			err = rec.call("client.verify", func() (err error) {
				verified, err = r.check(n)
				return err
			})
		}
		ph.verify += time.Since(vstart).Seconds()
		if err != nil {
			ph.failed++
			if len(ph.errors) < 5 {
				ph.errors = append(ph.errors, fmt.Sprintf("op %d: %v", n, err))
			}
			if rerr := r.reset(); rerr != nil && len(ph.errors) < 5 {
				ph.errors = append(ph.errors, fmt.Sprintf("op %d: fresh session: %v", n, rerr))
			}
			continue
		}
		ph.ops = append(ph.ops, opSample{start: start.Sub(begin).Seconds(), seconds: elapsed.Seconds(), bytes: verified})
		if r.renewDue(n) {
			ph.work = ph.work.plus(readCounters(w).minus(opened))
			rec.setOp(0)
			err := r.reset()
			if err == nil {
				err = warmUp(r, 1)
			}
			if err != nil {
				ph.errors = append(ph.errors, fmt.Sprintf("after op %d: session renewal: %v", n, err))
				ph.failed++ // the run is not clean, whichever op it is charged to
				break
			}
			opened = readCounters(w)
		}
	}
	rec.setOp(0)
	ph.seconds = time.Since(begin).Seconds()
	ph.work = ph.work.plus(readCounters(w).minus(opened))
	return ph
}

// runChild does one child's job and returns what it measured.
func runChild(cfg childConfig, log io.Writer) (*childResult, error) {
	res := &childResult{Workload: cfg.workload, Mode: cfg.mode, Metrics: map[string]float64{}}
	if cfg.mode == "probes" {
		m, err := runProbes(cfg.reps, cfg.sz, cfg.outDir)
		res.Metrics = m
		res.Attempted = len(m)
		return res, err
	}
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	var rec *recorder
	if cfg.mode == "traced" {
		rec = newRecorder(cfg.started)
	}
	r, err := spec.build(cfg.seed, cfg.sz, rec)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	// Set-up ends with a collection, so every measured phase starts from a
	// live heap and a fresh pacer target instead of from wherever set-up's
	// garbage left them; without it peak RSS is bimodal (whether a cycle
	// happened to run before the phase decides how far the heap grows in it).
	runtime.GC()
	w := r.info()
	m := res.Metrics
	m["setup_s"] = time.Since(cfg.started).Seconds()
	if cfg.mode == "setup" {
		r.close()
		res.Attempted = 1
		return res, nil
	}

	goroutines := runtime.NumGoroutine()
	steal0, ticks0 := cpuTicks()
	ph := runPhase(r, rec, cfg.seconds)
	steal1, ticks1 := cpuTicks()
	goroutines = runtime.NumGoroutine() - goroutines
	var endMem runtime.MemStats
	runtime.ReadMemStats(&endMem)
	res.Attempted, res.Failed, res.Errors = ph.attempted, ph.failed, ph.errors

	ops := float64(len(ph.ops))
	if ops == 0 {
		r.close()
		return res, fmt.Errorf("%s: no op succeeded (%d attempted)", cfg.workload, ph.attempted)
	}
	var secs []float64
	var opSeconds float64
	var bytes int64
	for _, op := range ph.ops {
		secs = append(secs, op.seconds)
		opSeconds += op.seconds
		bytes += op.bytes
	}
	attempted := float64(ph.attempted)

	// End-to-end (setup_s above).
	m["op_p50_s"] = median(secs)
	m["goodput_MBps"] = sixthMedianGoodput(ph.ops, ph.seconds)
	m["allocs_per_op"] = float64(ph.work[cMallocs]) / attempted
	m["peak_rss_MB"] = peakRSSMB()

	// Counters read through public accessors at the phase boundaries.
	m["netsim.conns_per_op"] = float64(ph.work[cConns]) / attempted
	m["netsim.wire_bytes_per_payload_byte"] = float64(ph.work[cWireBytes]) / float64(bytes)
	var maxQueue int64
	for _, l := range w.links {
		if q := w.nw.LinkStats(l[0], l[1]).MaxQueue; q > maxQueue {
			maxQueue = q
		}
	}
	m["netsim.max_queue_KB"] = float64(maxQueue) / 1024
	m["gridftp.ctrl_cmds_per_op"] = float64(ph.work[cCommands]) / attempted
	m["gridftp.sessions_per_op"] = float64(ph.work[cSessions]) / attempted

	m["process.cpu_ms_per_op"] = ph.opCPU / attempted * 1e3
	m["process.cpu_util"] = ph.opCPU / (opSeconds * float64(runtime.GOMAXPROCS(0)))
	m["process.alloc_KB_per_op"] = float64(ph.work[cAllocBytes]) / attempted / 1024
	m["process.gc_cycles_per_op"] = float64(ph.work[cGCCycles]) / attempted
	m["process.gc_pause_ms_per_op"] = float64(ph.work[cGCPauseNs]) / attempted / 1e6
	m["process.goroutine_growth"] = float64(goroutines)
	m["process.steal_pct"] = 0
	if ticks1 > ticks0 {
		m["process.steal_pct"] = 100 * (steal1 - steal0) / (ticks1 - ticks0)
	}
	m["process.heap_inuse_end_MB"] = float64(endMem.HeapInuse) / 1e6

	m["client.ops"] = ops
	m["client.op_p90_s"] = 0
	if tailEligible(len(secs), 0.9) {
		m["client.op_p90_s"] = quantile(secs, 0.9)
	}
	m["client.op_max_s"] = quantile(secs, 1)
	m["client.rtts_per_op"] = 0
	if w.rtt > 0 {
		m["client.rtts_per_op"] = m["op_p50_s"] / w.rtt.Seconds()
	}
	m["client.verify_ms_per_op"] = ph.verify / attempted * 1e3

	transferMetrics(m, r.samples(), w.obs)
	obsMetrics(m, w.obs)

	r.close() // before the spans are read: a persistent session's close is a span
	if rec != nil {
		if err := tracedMetrics(m, rec.snapshot(), len(ph.ops), cfg, log); err != nil {
			return res, err
		}
	}
	return res, nil
}

// transferMetrics folds the hosted workload's per-task observations; on the
// direct-site workloads the transfer service is not on the path and every
// one of them is 0.
func transferMetrics(m map[string]float64, samples map[string][]float64, o *obs.Obs) {
	for _, k := range []string{
		"transfer.submit_ms", "transfer.start_lag_ms", "transfer.wait_poll_lag_ms", "transfer.workers",
		"transfer.parallelism", "transfer.attempts_per_task", "transfer.files_per_s",
	} {
		m[k] = median(samples[k])
	}
	m["transfer.queue_wait_p50_ms"] = 0
	for _, h := range o.Registry().Snapshot() {
		if h.Name == "transfer.queue_wait_seconds" {
			m["transfer.queue_wait_p50_ms"] = h.P50 * 1e3
		}
	}
}

// obsMetrics prices the handed-in registry: how many series it holds at
// exit and what one snapshot of it costs.
func obsMetrics(m map[string]float64, o *obs.Obs) {
	var ms []float64
	series := 0
	for i := 0; i < 5; i++ {
		t := time.Now()
		series = len(o.Registry().Snapshot())
		ms = append(ms, time.Since(t).Seconds()*1e3)
	}
	m["obs.registry_series"] = float64(series)
	m["obs.snapshot_ms"] = median(ms)
}

// traceFile is what <out>/<workload>.trace.json holds.
type traceFile struct {
	Workload  string      `json:"workload"`
	Seed      int64       `json:"seed"`
	Ops       int         `json:"ops"`
	OpSeconds float64     `json:"op_seconds_total"`
	Budget    []budgetRow `json:"budget"`
	// Spans holds set-up, teardown and the first traceFileOps ops in full;
	// the budget above covers every traced op.
	Spans []span `json:"spans"`
}

const traceFileOps = 32

// tracedMetrics derives the span (S) and decorator (D) metrics, prints the
// per-layer table and writes the trace file.
func tracedMetrics(m map[string]float64, spans []span, ops int, cfg childConfig, log io.Writer) error {
	for metric, name := range map[string]string{
		"gridftp.dial_auth_s": "gridftp.dial_auth",
		"gridftp.delegate_s":  "gridftp.delegate",
		"gridftp.opts_s":      "gridftp.opts",
		"gridftp.get_s":       "gridftp.get",
		"gridftp.put_s":       "gridftp.put",
		"gridftp.close_s":     "gridftp.close",
		"myproxy.logon_s":     "myproxy.logon",
		"gcmu.connect_s":      "gcmu.connect",
		"transfer.activate_s": "transfer.activate",
		"transfer.task_s":     "transfer.wait",
	} {
		m[metric] = spanMedian(spans, name, span.seconds)
	}
	m["gcmu.install_ms"] = spanMedian(spans, "gcmu.install", span.seconds) * 1e3
	m["myproxy.logon_rtts"] = 0
	if cfg.workload == "hosted_small_files" {
		m["myproxy.logon_rtts"] = m["myproxy.logon_s"] / hostedHop.RTT.Seconds()
	}

	// Self time of the transfer calls: the span minus what its dsi children
	// cover.
	self := selfSeconds(spans)
	selfOf := func(s span) float64 { return self[s.ID] }
	m["gridftp.get_self_s"] = spanMedian(spans, "gridftp.get", selfOf)
	m["gridftp.put_self_s"] = spanMedian(spans, "gridftp.put", selfOf)

	// The storage decorator's view of the measured phase.
	var calls, ios int
	var ioBytes int64
	var opens []float64
	busy := map[int][][2]float64{}
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "dsi.") {
			continue
		}
		if s.Name == "dsi.open" || s.Name == "dsi.create" {
			opens = append(opens, s.seconds()*1e3)
		}
		if s.Op == 0 {
			continue
		}
		calls++
		busy[s.Op] = append(busy[s.Op], [2]float64{s.Start, s.End})
		if s.Name == "dsi.readat" || s.Name == "dsi.writeat" {
			ios++
			ioBytes += s.Bytes
		}
	}
	var busySeconds float64
	for _, iv := range busy {
		busySeconds += unionSeconds(iv)
	}
	m["dsi.calls_per_op"] = float64(calls) / float64(ops)
	m["dsi.busy_ms_per_op"] = busySeconds / float64(ops) * 1e3
	m["dsi.bytes_per_io"] = 0
	if ios > 0 {
		m["dsi.bytes_per_io"] = float64(ioBytes) / float64(ios)
	}
	m["dsi.open_ms_p50"] = median(opens)

	rows, opSeconds := layerBudget(spans)
	m["client.unexplained_pct"] = unexplainedPct(rows, opSeconds)
	writeBudget(log, rows, opSeconds, ops)

	tf := traceFile{Workload: cfg.workload, Seed: cfg.seed, Ops: ops, OpSeconds: opSeconds, Budget: rows}
	for _, s := range spans {
		if s.Op <= traceFileOps {
			tf.Spans = append(tf.Spans, s)
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, cfg.workload+".trace.json"), data, 0o644)
}
