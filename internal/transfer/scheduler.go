package transfer

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"time"

	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/obs"
)

// This file is the concurrent transfer scheduler: a task's file plan fans
// out to K worker pairs of control sessions, each draining a shared
// per-task queue of pending files and running third-party transfers
// concurrently, with the service-wide total bounded by the
// Config.MaxActiveTransfers semaphore. A worker's files share the
// inter-site data path its pair established for the first of them, and the
// worker keeps a window of them begun at both servers at once
// (gridftp.Pipeline), so a small file costs its two transfer commands and
// its data — not a connection, a handshake, or a control round trip of its
// own. Checkpointing is a per-file completion set plus per-file restart
// markers, so an attempt that dies with files in flight on several workers
// resumes only what is actually unfinished.

// maxTaskWorkers caps a single task's fan-out regardless of its size.
const maxTaskWorkers = 8

// pipelineWindow is how many bytes of files a worker keeps begun and
// unfinished on its session pair, and so also how much pending work
// justifies one more pair (workerCount). It is sized to hide a control
// round trip behind data already queued at the servers — 4 MiB is 10 ms at
// 400 MB/s or 100 ms at 40 MB/s — while keeping what a failure can leave
// half-done small. A file larger than the window travels alone.
const pipelineWindow = 4 << 20

// queueWaitBuckets are transfer.queue_wait_seconds' bounds: obs's default
// duration buckets extended down to 10 µs, because a file that finds a free
// admission slot waits microseconds and would otherwise read as the first
// bucket's 0.5 ms midpoint. Every default bound is kept, so the queue-wait
// p99 rule's 0.5 s threshold still sits on one.
var queueWaitBuckets = append([]float64{1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4},
	obs.DefaultDurationBuckets...)

// planFile is one file of a task's plan: its path relative to the task
// root ("" for a single-file task) and its size, learned from the MLSx
// Size fact during the walk — the scheduler never issues per-file SIZE.
type planFile struct {
	rel  string
	size int64
}

// transferPlan is the durable state a task carries across attempts: the
// destination directories the files land in (a parent before what lies under
// it; none for a single-file task), the file list, the per-file completion
// set, and per-file restart markers for files that died in flight. Workers on
// several goroutines update it concurrently.
type transferPlan struct {
	dirs []string

	mu      sync.Mutex
	files   []planFile
	done    []bool
	markers [][]gridftp.Range
}

func newTransferPlan(dirs []string, files []planFile) *transferPlan {
	return &transferPlan{
		dirs:    dirs,
		files:   files,
		done:    make([]bool, len(files)),
		markers: make([][]gridftp.Range, len(files)),
	}
}

// pending returns the indices of files not yet completed.
func (p *transferPlan) pending() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	var idx []int
	for i, d := range p.done {
		if !d {
			idx = append(idx, i)
		}
	}
	return idx
}

// complete marks file i done and drops its markers.
func (p *transferPlan) complete(i int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done[i] = true
	p.markers[i] = nil
}

// doneCount returns how many files have completed.
func (p *transferPlan) doneCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, d := range p.done {
		if d {
			n++
		}
	}
	return n
}

// saveMarkers records the latest restart markers for an in-flight file.
func (p *transferPlan) saveMarkers(i int, rs []gridftp.Range) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.markers[i] = rs
}

// takeMarkers returns file i's saved restart markers.
func (p *transferPlan) takeMarkers(i int) []gridftp.Range {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.markers[i]
}

// clearMarkers drops every file's restart markers (the checkpointing
// ablation: retries restart each unfinished file from byte 0).
func (p *transferPlan) clearMarkers() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := range p.markers {
		p.markers[i] = nil
	}
}

// sessionPair is one worker's pair of authenticated, delegated control
// sessions (source + destination).
type sessionPair struct {
	src, dst *gridftp.Client
	// rtt is one control round trip to the source as the pair's first flight
	// saw it (dialPair's, or relabel's on an adopted pair): its commands
	// written and their replies read.
	rtt time.Duration
	// walk is the walk of the task's source that flight started, when it
	// was asked to plan; buildPlan finishes and takes it.
	walk *gridftp.Walk
	// srcProxy and dstProxy are what the sessions authenticated with; a
	// task's extra workers dial with the same two.
	srcProxy, dstProxy *gsi.Credential
	// deadline is the earlier of the proxies' expiry and the end of the
	// delegated lifetime: past it the servers can open no data channel.
	deadline time.Time

	// What parking needs (see warm.go): the key a task must share to adopt
	// the pair — set on a task's primary pair only — and, while parked, when
	// it was parked and the timer that closes it if nobody adopts it.
	key      pairKey
	parkedAt time.Time
	idle     *time.Timer
}

// Close ends both sessions, the two QUIT round trips overlapping.
func (p *sessionPair) Close() {
	var wg sync.WaitGroup
	for _, c := range []*gridftp.Client{p.src, p.dst} {
		if c != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.Close()
			}()
		}
	}
	wg.Wait()
}

// firstFlight is what a session is sent before its files, as one flight
// (warm.go): the set-up commands, written and left owed, and — on the source
// session of an attempt that has yet to plan — the start of the walk right
// behind them, so one read brings back the set-up replies, what the source
// path is and what its top level holds. A session with nothing to plan reads
// its set-up replies alone. A refused set-up command fails the flight.
func firstFlight(c *gridftp.Client, setup gridftp.SessionSetup, planPath string) (*gridftp.Walk, error) {
	if err := c.Setup(setup); err != nil {
		return nil, err
	}
	if planPath == "" {
		return nil, c.Settle()
	}
	return c.StartWalk(planPath)
}

// dialPair opens one worker's session pair, source and destination at the
// same time: dial, delegate, then the session's first flight — join the
// caller's trace (SITE TRACE; endpoints without it keep rooting locally),
// label the session with the task id for stream telemetry (SITE TASK — the
// destination publishes its streams as "<task>", the source as
// "<task>-src"), on the destination set the marker cadence and — for
// cross-CA endpoint pairs — install the source credential via DCSC once
// per session instead of once per file, and on the source start the walk of
// planPath, when there is one. The source's flight is timed: it is the task's
// estimate of a control round trip, taken from a flight the pair pays for
// anyway. Both flights have been read when dialPair returns; if either side
// fails, the side that succeeded is closed.
func (s *Service) dialPair(srcEP, dstEP *Endpoint, srcProxy, dstProxy *gsi.Credential, sc obs.SpanContext, crossCA bool, taskLabel, planPath string) (*sessionPair, error) {
	open := func(ep *Endpoint, proxy *gsi.Credential, setup gridftp.SessionSetup, planPath string) (*gridftp.Client, *gridftp.Walk, time.Duration, error) {
		c, err := gridftp.DialWithOptions(s.host, ep.GridFTPAddr, proxy, ep.Trust,
			gridftp.DialOptions{Obs: s.cfg.Obs, Streams: s.cfg.Streams})
		if err != nil {
			return nil, nil, 0, err
		}
		var walk *gridftp.Walk
		var flight time.Duration
		if err = c.Delegate(delegatedLifetime); err == nil {
			start := time.Now()
			walk, err = firstFlight(c, setup, planPath)
			flight = time.Since(start)
		}
		if err != nil {
			c.Close()
			return nil, nil, 0, err
		}
		return c, walk, flight, nil
	}
	srcSetup := gridftp.SessionSetup{Trace: sc, Task: taskLabel}
	dstSetup := gridftp.SessionSetup{Trace: sc, Task: taskLabel, MarkerInterval: s.cfg.MarkerInterval}
	if crossCA {
		dstSetup.DCSC = srcProxy
	}

	pair := &sessionPair{srcProxy: srcProxy, dstProxy: dstProxy, deadline: time.Now().Add(delegatedLifetime)}
	for _, proxy := range []*gsi.Credential{srcProxy, dstProxy} {
		if proxy.Cert.NotAfter.Before(pair.deadline) {
			pair.deadline = proxy.Cert.NotAfter
		}
	}
	var srcErr, dstErr error
	srcDone := make(chan struct{})
	go func() {
		defer close(srcDone)
		pair.src, pair.walk, pair.rtt, srcErr = open(srcEP, srcProxy, srcSetup, planPath)
	}()
	pair.dst, _, _, dstErr = open(dstEP, dstProxy, dstSetup, "")
	<-srcDone
	if err := errors.Join(srcErr, dstErr); err != nil {
		pair.Close()
		return nil, err
	}
	return pair, nil
}

// workerCount sizes a task's fan-out: an explicit Config.TaskConcurrency
// wins; otherwise one session pair per pipelineWindow of pending bytes. A
// pair that keeps a window of files queued at both servers pays no per-file
// round trip, so it is not the number of files that calls for more pairs
// but more bytes than one pair's window covers. Either way the result is
// clamped to [1, maxTaskWorkers] and to the pending file count.
func (s *Service) workerCount(pendingFiles int, pendingBytes int64) int {
	k := s.cfg.TaskConcurrency
	if k <= 0 {
		k = int(min(maxTaskWorkers, (pendingBytes+pipelineWindow-1)/pipelineWindow))
	}
	if k > pendingFiles {
		k = pendingFiles
	}
	if k < 1 {
		k = 1
	}
	return k
}

// autotuner implements the §VI.A "automatically tune GridFTP transfer
// options" policy, upgraded from a static size table: per-file
// parallelism seeds from the file size, the task's total stream budget
// scales with the measured control RTT (long fat links need more
// concurrent streams to fill), the budget is divided across the task's
// workers, and live throughput feedback backs the budget off when the
// workers share a bottleneck link.
type autotuner struct {
	disabled bool

	mu      sync.Mutex
	workers int
	budget  int     // total streams across all workers
	best    float64 // best per-stream throughput observed (bytes/sec)
}

func newAutotuner(cfg Config, rtt time.Duration, workers int) *autotuner {
	a := &autotuner{disabled: cfg.DisableAutotune, workers: workers, budget: 8}
	if rtt >= 5*time.Millisecond {
		a.budget = 16
	}
	if a.budget < workers {
		a.budget = workers
	}
	return a
}

// sizeStreams is the size-seeded parallelism (the original static
// autotune table).
func sizeStreams(size int64) int {
	switch {
	case size >= 100<<20:
		return 8
	case size >= 10<<20:
		return 4
	case size >= 1<<20:
		return 2
	default:
		return 1
	}
}

// streamsFor picks the parallelism for one file: the size seed clamped
// to this worker's share of the task budget.
func (a *autotuner) streamsFor(size int64) int {
	if a.disabled {
		return 1
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	share := a.budget / a.workers
	if share < 1 {
		share = 1
	}
	n := sizeStreams(size)
	if n > share {
		n = share
	}
	return n
}

// budgetNow reports the current total stream budget (for metrics).
func (a *autotuner) budgetNow() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.budget
}

// observe feeds one completed file's achieved throughput back (the same
// signal the live 112 PERF markers carry, measured at file granularity).
// dur is the time the file had the pair's data path to itself: since it
// began, or since the file queued ahead of it completed if that is later —
// time spent waiting behind a neighbour is not the stream being slow.
// A per-stream rate that collapses below half the best seen means the
// workers are sharing a bottleneck — adding streams is not adding
// bandwidth — so the total budget backs off toward one stream per worker
// instead of letting K workers each push a full complement.
func (a *autotuner) observe(bytes int64, dur time.Duration, streams int) {
	if a.disabled || dur <= 0 || streams <= 0 {
		return
	}
	perStream := float64(bytes) / dur.Seconds() / float64(streams)
	a.mu.Lock()
	defer a.mu.Unlock()
	if perStream > a.best {
		a.best = perStream
		return
	}
	if perStream < a.best/2 && a.budget > a.workers {
		a.budget /= 2
		if a.budget < a.workers {
			a.budget = a.workers
		}
	}
}

// perfAgg aggregates in-flight 112 PERF-marker progress across a task's
// workers into the task's live PerfBytes/PerfMarkers view.
type perfAgg struct {
	svc  *Service
	task *Task

	mu      sync.Mutex
	bytes   []int64
	markers []int
}

func newPerfAgg(svc *Service, task *Task, workers int) *perfAgg {
	return &perfAgg{
		svc: svc, task: task,
		bytes: make([]int64, workers), markers: make([]int, workers),
	}
}

// report records worker slot's latest per-session perf snapshot and
// refreshes the task's aggregate view, which GET /task/{id} serves.
func (g *perfAgg) report(slot int, total int64, markers int) {
	g.mu.Lock()
	g.bytes[slot] = total
	g.markers[slot] = markers
	var sumBytes int64
	sumMarkers := 0
	for i := range g.bytes {
		sumBytes += g.bytes[i]
		sumMarkers += g.markers[i]
	}
	g.mu.Unlock()

	g.svc.cfg.Obs.Registry().Counter("transfer.perf_markers").Inc()
	g.svc.update(g.task, func(t *Task) {
		t.PerfBytes = sumBytes
		t.PerfMarkers = sumMarkers
	})
}

// workerRun is the shared context one scheduler worker drains.
type workerRun struct {
	task   *Task
	plan   *transferPlan
	tuner  *autotuner
	agg    *perfAgg
	queue  chan int
	stop   chan struct{}
	parent *obs.Span // span the worker's data spans attach to
	slot   int
}

// worker is one scheduler worker at work: its share of the run, the
// pipeline of transfers it has begun on its session pair, and what it needs
// to account for them as they complete.
type worker struct {
	workerRun
	s    *Service
	pipe *gridftp.Pipeline
	// inFlight is the plan size of the files begun and not yet completed.
	inFlight int64
	// lastDone is when the pair last completed a file.
	lastDone time.Time
	// err is the first failure; the worker begins nothing more after it.
	err error
}

// fileTransfer is one plan file between its begin and its completion.
type fileTransfer struct {
	index   int
	size    int64
	par     int
	already int64           // bytes earlier attempts landed
	latest  []gridftp.Range // newest restart markers seen
	span    *obs.Span
	begun   time.Time
}

// runWorker drains the task queue over one session pair until the queue
// is empty, a file fails, or another worker signals stop. It keeps up to
// pipelineWindow bytes of files begun at both servers, completing the
// oldest whenever it can begin no more; whatever is still in flight when it
// stops is completed before it returns, so every file it claimed has been
// accounted for. pipe is the pair's pipeline: the primary pair's comes with the
// task's directories already asked for (schedule).
func (s *Service) runWorker(r workerRun, pair *sessionPair, pipe *gridftp.Pipeline) error {
	// A session counts the markers of its whole life, and an adopted pair
	// has lived through other tasks.
	_, _, before := pair.dst.PerfSnapshot()
	pair.dst.OnPerf(func(gridftp.PerfMarker) {
		total, _, markers := pair.dst.PerfSnapshot()
		r.agg.report(r.slot, total, markers-before)
	})
	w := &worker{workerRun: r, s: s, pipe: pipe}
	for w.err == nil {
		for w.err == nil && w.inFlight < pipelineWindow && w.beginNext() {
		}
		if !w.pipe.Next() {
			break
		}
	}
	w.pipe.Drain()
	return w.err
}

// beginNext claims the next queued file and begins it. It reports false
// when there is nothing to begin now: the queue is empty, the task is
// stopping, or no admission slot is free and the worker has files in flight
// to complete first.
func (w *worker) beginNext() bool {
	// Global admission: a million-user fleet degrades gracefully instead
	// of thundering. A file holds its slot from begin to completion, so a
	// worker waits for one only while it holds none itself — waiting with
	// unfinished files in hand is waiting for slots only it can free. The
	// wait is observable per file.
	waitStart := time.Now()
	if w.pipe.InFlight() == 0 {
		w.s.sem <- struct{}{}
	} else {
		select {
		case w.s.sem <- struct{}{}:
		default:
			return false
		}
	}
	select {
	case <-w.stop:
		<-w.s.sem
		return false
	default:
	}
	i, ok := <-w.queue
	if !ok {
		<-w.s.sem
		return false
	}
	w.begin(i, time.Since(waitStart))
	return true
}

// begin is the first half of moving one plan file third-party: it takes
// the file into the active set, negotiates what the autotuner wants for it
// and writes its transfer commands behind the worker's files already in
// flight. Renegotiating a changed parallelism and resuming
// from restart markers need control round trips of their own, so such a
// file completes everything ahead of it first — the pipeline sees to that.
// complete runs exactly once for every file begun.
func (w *worker) begin(i int, wait time.Duration) {
	s, r := w.s, w.workerRun
	reg := s.cfg.Obs.Registry()
	reg.Histogram("transfer.queue_wait_seconds", queueWaitBuckets).Observe(wait.Seconds())
	active := reg.Gauge("transfer.active_transfers")
	active.Add(1)
	reg.Gauge("transfer.active_transfers_peak").Max(active.Value())

	f := r.plan.files[i]
	w.inFlight += f.size
	srcPath, dstPath := r.task.SrcPath, r.task.DstPath
	if f.rel != "" {
		srcPath = strings.TrimSuffix(r.task.SrcPath, "/") + "/" + f.rel
		dstPath = strings.TrimSuffix(r.task.DstPath, "/") + "/" + f.rel
	}

	par := r.tuner.streamsFor(f.size)
	s.update(r.task, func(t *Task) { t.FileSize = f.size; t.Parallelism = par })
	restart := r.plan.takeMarkers(i)
	ft := &fileTransfer{
		index: i, size: f.size, par: par,
		already: gridftp.FromRanges(restart).Covered(), latest: restart,
	}
	// Data phase: one span per file, third-party MODE E transfer.
	ft.span = r.parent.Child("data")
	ft.span.SetAttr("path", srcPath)
	ft.span.SetAttr("size", f.size)
	ft.span.SetAttr("parallelism", par)

	// Asking for the parallelism in effect costs nothing, so steady-state
	// small-file streaks negotiate once per worker.
	if err := w.pipe.SetParallelism(par); err != nil {
		w.complete(ft, err)
		return
	}
	reg.Gauge("transfer.stream_budget").Set(int64(r.tuner.budgetNow()))

	opts := gridftp.ThirdPartyOptions{
		Restart: restart,
		OnMarker: func(rs []gridftp.Range) {
			ft.latest = rs
			r.plan.saveMarkers(i, rs)
			s.update(r.task, func(t *Task) { t.Markers = rs })
		},
	}
	ft.begun = time.Now()
	if err := w.pipe.Begin(srcPath, dstPath, opts, func(_ *gridftp.ThirdPartyResult, err error) {
		w.complete(ft, err)
	}); err != nil {
		w.complete(ft, err)
	}
}

// complete is the second half: the file leaves the active set — its
// admission slot is free again — and the plan and the task learn what
// moved: everything on success, and on failure what the destination's
// restart markers say landed, saved for the retry to resume from.
func (w *worker) complete(ft *fileTransfer, terr error) {
	s, r, i := w.s, w.workerRun, ft.index
	reg := s.cfg.Obs.Registry()
	reg.Gauge("transfer.active_transfers").Add(-1)
	<-s.sem
	w.inFlight -= ft.size
	alone := ft.begun
	if w.lastDone.After(alone) {
		alone = w.lastDone
	}
	w.lastDone = time.Now()

	if terr != nil {
		ft.span.SetError(terr)
		ft.span.End()
		movedNow := gridftp.FromRanges(ft.latest).Covered() - ft.already
		if movedNow < 0 {
			movedNow = 0
		}
		r.plan.saveMarkers(i, ft.latest)
		s.update(r.task, func(t *Task) { t.BytesTransferred += movedNow })
		reg.Counter("transfer.bytes_total").Add(movedNow)
		if w.err == nil {
			w.err = terr
		}
		return
	}
	ft.span.End()
	moved := ft.size - ft.already
	r.tuner.observe(moved, w.lastDone.Sub(alone), ft.par)
	r.plan.complete(i)
	done := r.plan.doneCount()
	s.update(r.task, func(t *Task) {
		t.BytesTransferred += moved
		t.CompletedFiles = done
		t.Markers = nil
	})
	reg.Counter("transfer.bytes_total").Add(moved)
	reg.Counter("transfer.files_total").Inc()
}

// schedule fans the plan's pending files out across workers: worker 0
// reuses the primary session pair, workers 1..K-1 dial their own with the
// primary's proxies, and all drain the shared queue until it is empty or a
// file fails. With a single worker the task span owns the data spans
// directly (the sequential shape); with K > 1 each worker gets a child span.
//
// The destination tree is asked for first, on the primary pair, and worker 0
// does not wait for it: its first STOR follows the MKDs on the same channel.
// Every other worker writes on a channel of its own, where a STOR could
// overtake the MKD of the directory it lands in; it dials its pair at once and
// begins its first file when the primary pair has read the last MKD's reply —
// with its wiring or its first file's, a flight worker 0 waits out anyway.
// Every attempt asks again — a failed one says nothing about what the
// destination kept — and an existing directory's refusal costs nothing
// (Pipeline.Mkdirs).
func (s *Service) schedule(task *Task, plan *transferPlan, primary *sessionPair,
	srcEP, dstEP *Endpoint, taskSpan *obs.Span, pending []int, workers int, tuner *autotuner) error {

	queue := make(chan int, len(pending))
	for _, i := range pending {
		queue <- i
	}
	close(queue)
	stop := make(chan struct{})
	agg := newPerfAgg(s, task, workers)

	primaryPipe := gridftp.NewPipeline(primary.src, primary.dst)
	dirsAnswered, err := primaryPipe.Mkdirs(plan.dirs)
	if err != nil {
		return err
	}
	if workers == 1 {
		return s.runWorker(workerRun{
			task: task, plan: plan, tuner: tuner, agg: agg,
			queue: queue, stop: stop, parent: taskSpan, slot: 0,
		}, primary, primaryPipe)
	}

	crossCA := task.crossCA(srcEP, dstEP)
	activeWorkers := s.cfg.Obs.Registry().Gauge("transfer.active_workers")
	var (
		wg       sync.WaitGroup
		stopOnce sync.Once
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stopOnce.Do(func() { close(stop) })
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wspan := taskSpan.Child("worker")
			wspan.SetAttr("worker", w)
			defer wspan.End()
			activeWorkers.Add(1)
			defer activeWorkers.Add(-1)
			pair, pipe := primary, primaryPipe
			if w != 0 {
				var err error
				pair, err = s.dialPair(srcEP, dstEP, primary.srcProxy, primary.dstProxy, wspan.Context(), crossCA, task.ID, "")
				if err != nil {
					wspan.SetError(err)
					fail(err)
					return
				}
				defer pair.Close()
				pipe = gridftp.NewPipeline(pair.src, pair.dst)
				select {
				case <-dirsAnswered:
				case <-stop:
					return
				}
			}
			if err := s.runWorker(workerRun{
				task: task, plan: plan, tuner: tuner, agg: agg,
				queue: queue, stop: stop, parent: wspan, slot: w,
			}, pair, pipe); err != nil {
				wspan.SetError(err)
				fail(err)
			}
		}(w)
	}
	wg.Wait()
	return firstErr
}

// buildPlan finishes the walk the primary pair's first flight started and
// turns it into the task's plan: the files with their sizes — a single file's
// from the MLST Size fact, a directory's from the listings, so no per-file
// SIZE command is ever needed — and, for a directory, the destination tree
// they land in, root first. It creates nothing: the directories travel with
// the plan and are asked for ahead of the first file (schedule). A flat
// directory is finished already; a deeper one costs the source one more
// flight per level.
func buildPlan(task *Task, walk *gridftp.Walk) (*transferPlan, error) {
	if err := walk.Finish(); err != nil {
		return nil, err
	}
	files := make([]planFile, len(walk.Files))
	for i, e := range walk.Files {
		files[i] = planFile{rel: e.Rel, size: e.Size}
	}
	if !walk.IsDir {
		return newTransferPlan(nil, files), nil
	}
	sort.Slice(files, func(i, j int) bool { return files[i].rel < files[j].rel })
	root := strings.TrimSuffix(task.DstPath, "/")
	dirs := make([]string, 0, 1+len(walk.Dirs))
	dirs = append(dirs, root)
	for _, d := range walk.Dirs {
		dirs = append(dirs, root+"/"+d)
	}
	return newTransferPlan(dirs, files), nil
}
