package transfer

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
)

// slowLinks puts every hop of the hosted-transfer triangle (service to
// both sites, plus the inter-site path) on a long fat link, so per-file
// control round trips dominate a sequential small-files task.
func slowLinks(w *world, rtt time.Duration) {
	p := netsim.LinkParams{Bandwidth: 40e6, RTT: rtt, StreamWindow: 1 << 20}
	w.nw.SetLink("globusonline", "siteA", p)
	w.nw.SetLink("globusonline", "siteB", p)
	w.nw.SetLink("siteA", "siteB", p)
}

// makeTree creates a flat directory of n patterned files on the source.
func makeTree(t *testing.T, w *world, dir string, n, fileSize int) {
	t.Helper()
	if err := w.epA.Storage.Mkdir("alice", dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f, err := w.epA.Storage.Create("alice", fmt.Sprintf("%s/f%03d.bin", dir, i))
		if err != nil {
			t.Fatal(err)
		}
		dsi.WriteAll(f, pattern(fileSize))
		f.Close()
	}
}

func runDirTask(t *testing.T, w *world, dir string) (*Task, time.Duration) {
	t.Helper()
	start := time.Now()
	task, err := w.svc.Submit("alice", "siteA", dir, "siteB", dir)
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded {
		t.Fatalf("task: %s (%s)", done.Status, done.Error)
	}
	return done, time.Since(start)
}

// TestSchedulerBeatsSequentialOnHighRTT is the scheduler's acceptance
// scenario: 50 x 64 KiB files over 20 ms RTT links, once sequentially
// (TaskConcurrency=1) and once fanned out across auto-sized worker session
// pairs, which must cut wall-clock by at least 2x. Each leg is also held to
// a round-trip budget (elapsed ÷ RTT): since a worker's files share one
// inter-site data path both legs are several times faster than when every
// file paid PASV + PORT + connect + DCAU handshake, so the ratio between
// them (2.3–2.5x, once 3.7x) says less than what each one costs. It also
// proves the control-channel diet: the directory attempt issues zero
// per-file SIZE commands (sizes ride the MLSD facts), asserted via the
// per-verb command counters.
func TestSchedulerBeatsSequentialOnHighRTT(t *testing.T) {
	const nFiles = 50
	const fileSize = 64 << 10
	const rtt = 20 * time.Millisecond

	run := func(concurrency int) (*Task, time.Duration, *obs.Obs) {
		o := obs.Nop()
		w := buildWorld(t, Config{Obs: o, TaskConcurrency: concurrency}, false)
		slowLinks(w, rtt)
		activateBoth(t, w)
		makeTree(t, w, "/many", nFiles, fileSize)
		done, elapsed := runDirTask(t, w, "/many")
		if done.CompletedFiles != nFiles {
			t.Fatalf("completed %d of %d", done.CompletedFiles, nFiles)
		}
		return done, elapsed, o
	}

	seqDone, seqElapsed, seqObs := run(1)
	schedDone, schedElapsed, schedObs := run(0) // auto-sized fan-out

	if schedDone.Workers < 2 {
		t.Fatalf("auto-sizing picked %d workers for %d files at %v RTT, want >= 2",
			schedDone.Workers, nFiles, rtt)
	}
	if seqDone.Workers != 1 {
		t.Fatalf("sequential run used %d workers", seqDone.Workers)
	}
	seqRTTs, schedRTTs := float64(seqElapsed)/float64(rtt), float64(schedElapsed)/float64(rtt)
	t.Logf("sequential %v (%.0f round trips), scheduled %v (%.0f round trips, %d workers) — %.1fx",
		seqElapsed.Round(time.Millisecond), seqRTTs, schedElapsed.Round(time.Millisecond), schedRTTs,
		schedDone.Workers, float64(seqElapsed)/float64(schedElapsed))
	// Sequential: pair set-up and plan, then the files one after another at
	// a little over two round trips each (~111 measured; 395 when every
	// file re-established the data path). Scheduled: the same set-up, the
	// other workers' pairs opened alongside, and a seventh of the files per
	// worker (~45 measured; 110 before).
	if budget := 3.0 * nFiles; seqRTTs > budget {
		t.Errorf("sequential leg took %.0f round trips, budget %.0f (3 per file)", seqRTTs, budget)
	}
	if budget := 1.5 * nFiles; schedRTTs > budget {
		t.Errorf("scheduled leg took %.0f round trips, budget %.0f", schedRTTs, budget)
	}
	if schedElapsed*2 > seqElapsed {
		t.Errorf("scheduler not >= 2x faster: sequential %v vs scheduled %v", seqElapsed, schedElapsed)
	}

	// Zero per-file SIZE commands on either path; the counters are live
	// (RETR fired once per file), so zero means "not issued", not
	// "not counted".
	for name, o := range map[string]*obs.Obs{"sequential": seqObs, "scheduled": schedObs} {
		reg := o.Metrics
		if v := reg.Counter(obs.Name("gridftp.client.commands", "cmd=SIZE")).Value(); v != 0 {
			t.Errorf("%s run issued %d SIZE commands, want 0", name, v)
		}
		if v := reg.Counter(obs.Name("gridftp.client.commands", "cmd=RETR")).Value(); v != nFiles {
			t.Errorf("%s run counted %d RETR commands, want %d", name, v, nFiles)
		}
	}

	// Scheduler observability: per-worker child spans under the task
	// span, each owning data spans, plus the queue-wait histogram and the
	// active-transfers gauge having seen traffic.
	var taskRoot obs.SpanInfo
	for _, r := range schedObs.Trace.Roots() {
		if r.Name == "task" {
			taskRoot = r
		}
	}
	workerSpans := 0
	dataUnderWorkers := 0
	for _, child := range schedObs.Trace.Children(taskRoot.ID) {
		if child.Name != "worker" {
			continue
		}
		workerSpans++
		for _, g := range schedObs.Trace.Children(child.ID) {
			if g.Name == "data" {
				dataUnderWorkers++
			}
		}
	}
	if workerSpans != schedDone.Workers {
		t.Errorf("%d worker spans, want %d:\n%s", workerSpans, schedDone.Workers,
			schedObs.Trace.TreeString())
	}
	if dataUnderWorkers != nFiles {
		t.Errorf("%d data spans under workers, want %d", dataUnderWorkers, nFiles)
	}
	reg := schedObs.Metrics
	if c := reg.Histogram("transfer.queue_wait_seconds", obs.DefaultDurationBuckets).Count(); c != nFiles {
		t.Errorf("queue_wait_seconds observed %d waits, want %d", c, nFiles)
	}
	if v := reg.Gauge("transfer.active_transfers").Value(); v != 0 {
		t.Errorf("active_transfers gauge left at %d, want 0", v)
	}
}

// TestConcurrentSubmitsShareService drives N simultaneous Submits through
// one service instance with a small MaxActiveTransfers, exercising the
// global admission semaphore and the shared task map under -race.
func TestConcurrentSubmitsShareService(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, MaxActiveTransfers: 2}, false)
	activateBoth(t, w)

	const nTasks = 4
	payloads := make([][]byte, nTasks)
	for i := range payloads {
		payloads[i] = pattern(128<<10 + i*1000)
		w.putSrc(t, fmt.Sprintf("/con%d.bin", i), payloads[i])
	}

	var wg sync.WaitGroup
	ids := make([]string, nTasks)
	errs := make([]error, nTasks)
	for i := 0; i < nTasks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/con%d.bin", i)
			task, err := w.svc.Submit("alice", "siteA", path, "siteB", path)
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = task.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i, id := range ids {
		done, err := w.svc.Wait(id, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != TaskSucceeded {
			t.Fatalf("task %d: %s (%s)", i, done.Status, done.Error)
		}
		if !bytes.Equal(w.readDst(t, fmt.Sprintf("/con%d.bin", i)), payloads[i]) {
			t.Fatalf("task %d content mismatch", i)
		}
	}
	if v := o.Metrics.Gauge("transfer.active_transfers").Value(); v != 0 {
		t.Errorf("active_transfers gauge left at %d, want 0", v)
	}
	if v := o.Metrics.Gauge("transfer.active_transfers_peak").Value(); v > 2 {
		t.Errorf("active_transfers peaked at %d, semaphore cap is 2", v)
	}
}

// TestSchedulerCheckpointResume kills one file mid-flight while several
// workers are transferring: the per-file completion set must resume only
// the unfinished files, never re-transferring completed ones, and the
// failed file must restart from its saved markers rather than byte 0.
func TestSchedulerCheckpointResume(t *testing.T) {
	const nFiles = 16
	const fileSize = 128 << 10
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, TaskConcurrency: 4, RetryDelay: 10 * time.Millisecond}, false)
	activateBoth(t, w)
	makeTree(t, w, "/ckpt", nFiles, fileSize)
	// Slow the data path so markers land before the fault trips.
	w.nw.SetLink("siteA", "siteB", netsim.LinkParams{
		Bandwidth: 30e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22,
	})
	w.faultB.Arm(fileSize / 2) // first file opened after arming dies halfway

	done, _ := runDirTask(t, w, "/ckpt")
	if done.Attempts < 2 {
		t.Fatalf("fault did not trigger a retry (attempts=%d)", done.Attempts)
	}
	if done.CompletedFiles != nFiles {
		t.Fatalf("completed %d of %d", done.CompletedFiles, nFiles)
	}
	// Every file completed exactly once across all attempts: a completed
	// file is never queued again, so the files counter hits nFiles, not
	// nFiles plus re-transfers.
	if v := o.Metrics.Counter("transfer.files_total").Value(); v != nFiles {
		t.Errorf("transfer.files_total = %d, want %d (files re-transferred?)", v, nFiles)
	}
	// And the failed file resumed from markers: total bytes moved stays
	// well under re-sending even one extra full file list.
	total := int64(nFiles * fileSize)
	if done.BytesTransferred > total+total/2 {
		t.Errorf("resume ineffective: moved %d of %d total", done.BytesTransferred, total)
	}
	for i := 0; i < nFiles; i++ {
		path := fmt.Sprintf("/ckpt/f%03d.bin", i)
		f, err := w.epB.Storage.Open("alice", path)
		if err != nil {
			t.Fatalf("%s missing at destination: %v", path, err)
		}
		got, _ := dsi.ReadAll(f)
		f.Close()
		if !bytes.Equal(got, pattern(fileSize)) {
			t.Fatalf("file %d mismatch", i)
		}
	}
}

func TestBlockSizeForBDP(t *testing.T) {
	a := &autotuner{workers: 1, budget: 8}
	cases := []struct {
		name    string
		ws      streamstats.WireSummary
		streams int
		want    int
	}{
		{"no evidence keeps default", streamstats.WireSummary{}, 4, gridftp.DefaultBlockSize},
		{"lan path clamps low", streamstats.WireSummary{
			RTT: 200 * time.Microsecond, Throughput: 10e6}, 1, minAutoBlockSize},
		{"wan path sizes to bdp", streamstats.WireSummary{
			RTT: 50 * time.Millisecond, Throughput: 40e6}, 1, 1 << 20},
		{"streams share the bdp", streamstats.WireSummary{
			RTT: 50 * time.Millisecond, Throughput: 40e6}, 4, 256 << 10},
		{"long fat path clamps high", streamstats.WireSummary{
			RTT: 200 * time.Millisecond, Throughput: 1e9}, 1, maxAutoBlockSize},
		{"cwnd cold start", streamstats.WireSummary{CwndSegments: 100}, 1, 128 << 10},
	}
	for _, tc := range cases {
		if got := a.blockSizeFor(tc.ws, tc.streams); got != tc.want {
			t.Errorf("%s: blockSizeFor = %d, want %d", tc.name, got, tc.want)
		}
	}
	a.disabled = true
	if got := a.blockSizeFor(streamstats.WireSummary{RTT: time.Second, Throughput: 1e9}, 1); got != gridftp.DefaultBlockSize {
		t.Errorf("disabled tuner: blockSizeFor = %d, want default", got)
	}
}
